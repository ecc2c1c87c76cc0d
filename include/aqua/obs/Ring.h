//===- aqua/obs/Ring.h - Bounded ring of recent records ----------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded ring behind the span tracer and the flight recorder: it
/// keeps the newest Capacity records, counts the ones it overwrote, and
/// hands out an oldest-first snapshot. Thread-safe; each push is one short
/// critical section. Owners keep their own metrics.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_OBS_RING_H
#define AQUA_OBS_RING_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace aqua::obs {

template <typename T> class BoundedRing {
public:
  explicit BoundedRing(std::size_t Capacity) : Capacity(Capacity) {
    Slots.reserve(Capacity);
  }

  struct Pushed {
    std::size_t Size; ///< Records held after the push.
    bool Overwrote;   ///< The push overwrote the oldest record.
  };

  /// Appends \p V, overwriting the oldest record when the ring is full.
  Pushed push(T V) {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool Full = Slots.size() == Capacity;
    if (Full)
      Slots[Recorded % Capacity] = std::move(V); // The oldest slot.
    else
      Slots.push_back(std::move(V));
    ++Recorded;
    return {Slots.size(), Full};
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Slots.size();
  }
  std::uint64_t recorded() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Recorded;
  }
  /// Records overwritten by wraparound.
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Recorded - Slots.size();
  }
  void clear() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Slots.clear();
    Recorded = 0;
  }

  /// Held records, oldest first.
  std::vector<T> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<T> Out;
    Out.reserve(Slots.size());
    std::size_t Head = Slots.size() < Capacity ? 0 : Recorded % Capacity;
    for (std::size_t I = 0; I < Slots.size(); ++I)
      Out.push_back(Slots[(Head + I) % Slots.size()]);
    return Out;
  }

private:
  mutable std::mutex Mutex;
  std::vector<T> Slots; ///< Once full, Recorded % Capacity is the oldest.
  std::size_t Capacity;
  std::uint64_t Recorded = 0;
};

} // namespace aqua::obs

#endif // AQUA_OBS_RING_H
