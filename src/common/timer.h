// Monotonic timing: the stopwatch the benches and the engine measure
// phases with, and the one steady-clock "now" the server times its drain
// deadline with.

#ifndef SJOS_COMMON_TIMER_H_
#define SJOS_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace sjos {

/// Monotonic stopwatch. Construction starts it; ElapsedMicros()/ElapsedMs()
/// read without stopping.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  double ElapsedMs() const {
    return static_cast<double>(ElapsedMicros()) / 1000.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Microseconds on the steady clock since its (arbitrary) epoch.
inline uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace sjos

#endif  // SJOS_COMMON_TIMER_H_
