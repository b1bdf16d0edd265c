// time.hpp — simulated time strong types.
//
// The simulator runs on nanosecond-resolution virtual time.  `SimDuration`
// is a span, `SimTime` an instant; mixing them up is a compile error.  The
// distinction matters in this library because control-plane claims are about
// *slack between instants* (e.g. "mapping configured before the DNS answer
// arrives", paper claim (ii)).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

namespace lispcp::sim {

/// A span of simulated time (may be negative, e.g. slack computations).
class SimDuration {
 public:
  constexpr SimDuration() noexcept = default;

  static constexpr SimDuration nanos(std::int64_t n) noexcept { return SimDuration(n); }
  static constexpr SimDuration micros(std::int64_t n) noexcept {
    return SimDuration(n * 1'000);
  }
  static constexpr SimDuration millis(std::int64_t n) noexcept {
    return SimDuration(n * 1'000'000);
  }
  static constexpr SimDuration seconds(std::int64_t n) noexcept {
    return SimDuration(n * 1'000'000'000);
  }
  /// Fractional milliseconds, for latency parameters like 12.5 ms.
  static constexpr SimDuration millis_f(double ms) noexcept {
    return SimDuration(static_cast<std::int64_t>(ms * 1'000'000.0));
  }
  static constexpr SimDuration seconds_f(double s) noexcept {
    return SimDuration(static_cast<std::int64_t>(s * 1'000'000'000.0));
  }

  [[nodiscard]] constexpr std::int64_t ns() const noexcept { return ns_; }
  [[nodiscard]] constexpr double us() const noexcept { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const noexcept { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const noexcept { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] std::string to_string() const;

  constexpr SimDuration& operator+=(SimDuration d) noexcept { ns_ += d.ns_; return *this; }
  constexpr SimDuration& operator-=(SimDuration d) noexcept { ns_ -= d.ns_; return *this; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) noexcept {
    return SimDuration(a.ns_ + b.ns_);
  }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) noexcept {
    return SimDuration(a.ns_ - b.ns_);
  }
  friend constexpr SimDuration operator-(SimDuration a) noexcept {
    return SimDuration(-a.ns_);
  }
  friend constexpr SimDuration operator*(SimDuration a, std::int64_t k) noexcept {
    return SimDuration(a.ns_ * k);
  }
  friend constexpr SimDuration operator*(std::int64_t k, SimDuration a) noexcept {
    return a * k;
  }
  friend constexpr SimDuration operator/(SimDuration a, std::int64_t k) noexcept {
    return SimDuration(a.ns_ / k);
  }
  /// Ratio of two durations, e.g. T_map / T_DNS for claim (ii).
  friend constexpr double operator/(SimDuration a, SimDuration b) noexcept {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  friend constexpr auto operator<=>(SimDuration, SimDuration) noexcept = default;

 private:
  constexpr explicit SimDuration(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An instant of simulated time, measured from simulation start (t = 0).
class SimTime {
 public:
  constexpr SimTime() noexcept = default;

  static constexpr SimTime zero() noexcept { return SimTime(); }
  /// The last representable instant: a time bound nothing lies beyond.
  static constexpr SimTime max() noexcept {
    return SimTime(std::numeric_limits<std::int64_t>::max());
  }
  static constexpr SimTime from_ns(std::int64_t n) noexcept { return SimTime(n); }

  [[nodiscard]] constexpr std::int64_t ns() const noexcept { return ns_; }
  [[nodiscard]] constexpr double ms() const noexcept { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const noexcept { return static_cast<double>(ns_) / 1e9; }

  /// Duration since simulation start.
  [[nodiscard]] constexpr SimDuration since_start() const noexcept {
    return SimDuration::nanos(ns_);
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr SimTime operator+(SimTime t, SimDuration d) noexcept {
    return SimTime(t.ns_ + d.ns());
  }
  friend constexpr SimTime operator-(SimTime t, SimDuration d) noexcept {
    return SimTime(t.ns_ - d.ns());
  }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) noexcept {
    return SimDuration::nanos(a.ns_ - b.ns_);
  }
  constexpr SimTime& operator+=(SimDuration d) noexcept { ns_ += d.ns(); return *this; }

  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;

 private:
  constexpr explicit SimTime(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

std::ostream& operator<<(std::ostream& os, SimDuration d);
std::ostream& operator<<(std::ostream& os, SimTime t);

}  // namespace lispcp::sim
