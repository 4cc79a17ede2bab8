// The traced run: replays the workload's request stream one request at a
// time through each layer's public calls, innermost first, timing each call
// with the nanosecond clock from outside the program:
//
//   kernel    QuerySession::Distance / ShortestPath, DistanceMatrix
//   session   DistanceOracle::NewSession
//   engine    ConcurrentEngine::Lease, SubmitAsync, BatchDistance, ...
//   registry  IndexRegistry::Current, build and frozen-order rebuild times
//   cache     ResultCache::Lookup / Insert / LookupMany
//   admission AdmissionController::TryAdmit + Release
//   codec     ParseRequest / FormatReply, DecodeRequest / EncodeReplyFrame
//   stack     ServerStack::Submit (v1 text) / SubmitDecoded (v2), cache off
//   tcp       LineClient / BinaryClient round trips over loopback
//
// Every layer folds its answers of a request class into a checksum; the
// checksums of kernel, engine, stack and tcp must be identical, and their
// medians must nest (LayerOrder).
#pragma once

#include "serve.h"

namespace perfbench {

/// Appends the per-layer metrics to out->layer; a checksum mismatch counts
/// as a failed answer, medians out of order make the run invalid.
void RunLayers(const RunOptions& options, Outcome* out);

/// Adjacent layers may swap by up to this share of the outer median: at
/// engine and stack a matrix is the same DistanceMatrix call, so their
/// medians differ by the noise of its thread fan-out alone.
inline constexpr double kOrderTolerance = 0.05;

enum class Order { kStrict, kWithinTolerance, kViolated };

/// How one request class's layer medians nest. Point classes must satisfy
/// kernel <= engine <= stack <= tcp. Bulk classes fan out over the engine's
/// threads from the engine layer up, so the one-thread kernel time is left
/// out and engine <= stack <= tcp must hold.
Order LayerOrder(double kernel, double engine, double stack, double tcp,
                 bool bulk);
const char* OrderName(Order order);

}  // namespace perfbench
