// Byzantine linearizability check for FAULTY-WRITER histories — the
// mechanized form of the paper's witness-history construction
// (Definition 78 for verifiable registers, Definition 143 for
// authenticated registers).
//
// Setting: the writer is Byzantine, so the recorded history H|correct
// contains only reader operations (Read / Verify). Byzantine
// linearizability (Definition 7) asks for SOME history H' with
// H'|correct = H|correct that is linearizable — the paper proves one
// always exists by inserting the writer's operations at specific points:
//
//   * for every value v with a Verify(v) -> true, insert Sign(v)->success
//     inside the interval (tv0, tv1), where tv0 is the latest invocation
//     of a Verify(v)->false and tv1 the earliest response of a
//     Verify(v)->true (non-empty by the relay property, Lemma 48);
//   * for every inserted Sign(v), insert a Write(v) immediately before it,
//     and for every Read returning v a Write(v) immediately before the
//     Read's response (the Read linearizes right after it);
//   * keep all inserted writer operations sequential.
//
// This header performs exactly that construction on a recorded history and
// then runs the partitioned Wing–Gong checker on the completed history.
// The construction is per register: windows are keyed by (object, value)
// and every inserted writer operation inherits the object of the reader
// operations it justifies, so a multi-register reader history decomposes
// into per-register completions checked independently — the same
// P-compositional structure check_linearizable() exploits. If the
// construction is impossible (tv1 <= tv0 — i.e., relay was violated) or
// the completed history fails the checker, the implementation is NOT
// Byzantine linearizable, and we report why.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"

namespace swsig::lincheck {

struct ByzantineCheckResult {
  bool byzantine_linearizable = false;
  // Verdict of the underlying partitioned check on the completed history
  // (kViolation when the witness construction itself was impossible).
  Verdict verdict = Verdict::kViolation;
  std::string reason;  // populated on failure
  std::size_t inserted_ops = 0;
  std::uint64_t states_explored = 0;
};

namespace detail {

// Scales timestamps so there is room to insert writer operations between
// existing events.
inline std::vector<Operation> scale_history(std::vector<Operation> ops,
                                            std::uint64_t k) {
  for (Operation& op : ops) {
    op.invoke_ts *= k;
    op.response_ts *= k;
  }
  return ops;
}

}  // namespace detail

// `writer_op` is "sign" for the verifiable register (a separate Sign is
// inserted and a Write before it) or "write" for the authenticated
// register (Writes only). `v0` is every register's initial value (verifies
// true unconditionally for authenticated registers).
inline ByzantineCheckResult check_byzantine_faulty_writer(
    const std::vector<Operation>& recorded, const SequentialSpec& spec,
    const std::string& writer_op, const std::string& v0,
    const CheckOptions& options = {}) {
  constexpr std::uint64_t kScale = 1000;
  std::vector<Operation> ops = detail::scale_history(recorded, kScale);

  ByzantineCheckResult result;
  int next_id = -1;  // inserted ops get negative ids (diagnostics only)

  // ---- Step 2 (Definition 78): per-(register, value) Sign/Write inside
  // (tv0, tv1).
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, std::uint64_t>>
      windows;
  for (const Operation& op : ops) {
    if (op.name != "verify") continue;
    auto& w = windows
                  .try_emplace({op.object, op.arg}, 0,
                               std::numeric_limits<std::uint64_t>::max())
                  .first->second;
    if (op.result == "false") w.first = std::max(w.first, op.invoke_ts);
    if (op.result == "true") w.second = std::min(w.second, op.response_ts);
  }
  for (const auto& [key, window] : windows) {
    const auto& [object, value] = key;
    const bool any_true =
        window.second != std::numeric_limits<std::uint64_t>::max();
    if (!any_true) continue;           // nothing to justify
    if (value == v0 && writer_op == "write") continue;  // v0 pre-signed
    if (window.second <= window.first + 1) {
      result.reason = "relay violated for value " + value +
                      (object.empty() ? "" : " of object '" + object + "'") +
                      ": no room between last verify=false invocation and "
                      "first verify=true response";
      return result;
    }
    // Insert Write(value) [+ Sign(value)] at the start of the window.
    const std::uint64_t t = window.first + 1;  // strictly inside
    Operation write;
    write.id = next_id--;
    write.pid = 1;
    write.object = object;
    write.name = "write";
    write.arg = value;
    write.result = "done";
    write.invoke_ts = t;
    write.response_ts = t;  // zero-length interval: trivially sequential
    ops.push_back(write);
    ++result.inserted_ops;
    if (writer_op == "sign") {
      Operation sign = write;
      sign.id = next_id--;
      sign.name = "sign";
      sign.result = "success";
      // Immediately after its Write, still inside the window.
      sign.invoke_ts = sign.response_ts = t;
      ops.push_back(sign);
      ++result.inserted_ops;
    }
  }

  // ---- Step 3: justify Reads with a Write immediately before each — for
  // EVERY returned value, including v0 (the Byzantine writer may have
  // re-written the initial value after other writes; Definition 78/143
  // insert a Write before every Read). Only sticky-⊥ needs no write. The
  // Write goes at the end of the Read's interval, where the Read then
  // linearizes: a Verify(v)->false that overlaps a Read->v may precede the
  // Write, so only a Verify(v)->false invoked after the Read returned
  // conflicts with it (Observation 19). A Write before the invocation
  // would also reject the overlapping case, which Algorithm 2 allows.
  for (const Operation& op : recorded) {
    if (op.name != "read") continue;
    if (op.result == "⊥") continue;
    const std::uint64_t at = op.pending() ? op.invoke_ts : op.response_ts;
    Operation write;
    write.id = next_id--;
    write.pid = 1;
    write.object = op.object;
    write.name = "write";
    write.arg = op.result;
    write.result = "done";
    // Immediately before the read's response (scaled => room exists).
    write.invoke_ts = at * kScale - 1;
    write.response_ts = at * kScale - 1;
    ops.push_back(write);
    ++result.inserted_ops;
  }

  const CheckResult check = check_linearizable(ops, spec, options);
  result.verdict = check.verdict;
  result.states_explored = check.states_explored;
  result.byzantine_linearizable = check.linearizable();
  if (check.verdict == Verdict::kViolation)
    result.reason = "completed history is not linearizable (" + check.detail +
                    ")";
  else if (check.verdict == Verdict::kBudgetExhausted)
    result.reason = "undecided: " + check.detail;
  return result;
}

// Convenience wrappers for the two register types.
inline ByzantineCheckResult check_byzantine_verifiable(
    const std::vector<Operation>& recorded, const std::string& v0,
    const CheckOptions& options = {}) {
  return check_byzantine_faulty_writer(recorded, VerifiableRegisterSpec(v0),
                                       "sign", v0, options);
}

inline ByzantineCheckResult check_byzantine_authenticated(
    const std::vector<Operation>& recorded, const std::string& v0,
    const CheckOptions& options = {}) {
  return check_byzantine_faulty_writer(
      recorded, AuthenticatedRegisterSpec(v0), "write", v0, options);
}

}  // namespace swsig::lincheck
