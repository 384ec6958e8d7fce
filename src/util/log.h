// Log levels. The simulator logs nothing, so setting a level does nothing.
// LogLevel and SetLogLevel remain because the host-cost benchmark
// (perfbench/main.cc) calls SetLogLevel(kWarn).
#pragma once

namespace omcast::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Does nothing.
inline void SetLogLevel(LogLevel /*level*/) {}

}  // namespace omcast::util
