// The four communication models of the paper (Table 1).
//
// Two orthogonal axes:
//  - Simultaneity: in SIM* models every node becomes active in the first
//    round ("all nodes active after the first round"); in free models a node
//    may stay awake and decide later, based on the whiteboard, when to raise
//    its hand.
//  - Synchrony: in synchronous models an active node may recompute ("change
//    its mind about") the message stored in its local memory every round; in
//    asynchronous models the message is frozen at activation time and is
//    eventually written unchanged, whatever has been written in between.
#pragma once

#include <string_view>

namespace wb {

enum class ModelClass {
  kSimAsync,  // SIMASYNC[f(n)] — simultaneous, message frozen at activation
  kSimSync,   // SIMSYNC[f(n)]  — simultaneous, message recomputed each round
  kAsync,     // ASYNC[f(n)]    — free activation, message frozen
  kSync,      // SYNC[f(n)]     — free activation, message recomputed
};

/// All nodes are forced active in round one?
[[nodiscard]] constexpr bool is_simultaneous(ModelClass m) noexcept {
  return m == ModelClass::kSimAsync || m == ModelClass::kSimSync;
}

/// Message frozen at activation (asynchronous axis)?
[[nodiscard]] constexpr bool is_asynchronous(ModelClass m) noexcept {
  return m == ModelClass::kSimAsync || m == ModelClass::kAsync;
}

[[nodiscard]] constexpr std::string_view model_name(ModelClass m) noexcept {
  switch (m) {
    case ModelClass::kSimAsync: return "SIMASYNC";
    case ModelClass::kSimSync: return "SIMSYNC";
    case ModelClass::kAsync: return "ASYNC";
    case ModelClass::kSync: return "SYNC";
  }
  return "?";
}

/// Node lifecycle (§2): awake → active → terminated.
enum class NodeState { kAwake, kActive, kTerminated };

}  // namespace wb
