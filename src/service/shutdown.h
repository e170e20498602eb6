// Graceful shutdown plumbing shared by dblayout advise and dblayout serve:
// SIGINT/SIGTERM set a process-wide atomic flag; long-running stages poll it
// (the layout search via SearchOptions::cancel_requested, the serve loop
// between statements) and unwind normally — flushing journal/metrics/trace
// and writing a final checkpoint — instead of dying mid-write. A second
// signal falls through to the default disposition, so a wedged process can
// still be killed interactively.

#ifndef DBLAYOUT_SERVICE_SHUTDOWN_H_
#define DBLAYOUT_SERVICE_SHUTDOWN_H_

#include <atomic>

namespace dblayout {

/// Installs SIGINT and SIGTERM handlers that set the shutdown flag (and
/// restore the default disposition so the next signal terminates).
/// Idempotent; async-signal-safe handler (one relaxed atomic store).
void InstallShutdownHandlers();

/// True once a shutdown signal was received (or RequestShutdown ran).
bool ShutdownRequested();

/// The flag itself, for wiring into SearchOptions::cancel_requested /
/// ServiceConfig::cancel_requested.
const std::atomic<bool>* ShutdownFlag();

/// Sets the flag programmatically (tests; also lets tools translate other
/// conditions into the same graceful unwind).
void RequestShutdown();

/// Clears the flag so one test process can exercise several shutdowns.
void ResetShutdownForTest();

}  // namespace dblayout

#endif  // DBLAYOUT_SERVICE_SHUTDOWN_H_
