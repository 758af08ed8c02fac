#ifndef MISO_VERIFY_ERROR_CODES_H_
#define MISO_VERIFY_ERROR_CODES_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace miso::verify {

/// Stable machine-readable codes for verifier diagnostics. Every Status a
/// verifier returns embeds one of these as a "[Vnnn]" prefix of its
/// message. Codes are append-only: a published code never changes meaning,
/// so tests and monitoring can match on them across versions.
enum class VerifyCode {
  kOk = 0,

  // -- PlanVerifier: plan structure (V10x). --
  kPlanEmpty = 100,             // V100: null root / empty plan
  kPlanCycle = 101,             // V101: operator graph is not a DAG
  kPlanArity = 102,             // V102: operator has wrong child count
  kPlanSchema = 103,            // V103: operator references a field absent
                                //       from its input schema, or carries
                                //       negative output stats
  kPlanViewUnresolved = 104,    // V104: ViewScan not resolvable in the
                                //       catalog of its store
  kPlanTooLarge = 105,          // V105: node count above the safety cap

  // -- PlanVerifier: split shape (V12x). --
  kSplitBackEdge = 120,         // V120: DW-side node feeds an HV-side node
                                //       (data must flow HV -> DW only, §3)
  kSplitNotDwExecutable = 121,  // V121: DW side holds an HV-only operator
  kSplitViewWrongSide = 122,    // V122: ViewScan assigned to the store it
                                //       does not reside in
  kSplitCutInconsistent = 123,  // V123: cut_inputs disagree with the HV/DW
                                //       frontier implied by dw_side
  kSplitForeignNode = 124,      // V124: split references a node outside
                                //       the plan
  kSplitDuplicateNode = 125,    // V125: node listed twice in dw_side
  kSplitBytesMismatch = 126,    // V126: transferred_bytes != sum of cut
                                //       input sizes

  // -- Optimizer what-if answers (V13x). --
  kWhatIfAnswerDrift = 130,     // V130: memoized what-if answer differs
                                //       from Optimize's (bits or ok-ness)

  // -- DesignVerifier (V2xx). --
  kDesignHvOverBudget = 200,        // V200: HV design exceeds Bh
  kDesignDwOverBudget = 201,        // V201: DW design exceeds Bd
  kDesignTransferOverBudget = 202,  // V202: reorg movement exceeds Bt
  kDesignDuplicatePlacement = 203,  // V203: view placed in both stores
  kDesignAccountingDrift = 204,     // V204: catalog used_bytes != sum of
                                    //       member view sizes
  kReorgUnknownView = 205,          // V205: movement references a view not
                                    //       present in its source store
  kReorgDuplicateMove = 206,        // V206: view appears in two movement /
                                    //       drop lists of one reorg plan
  kMergedItemSplit = 207,           // V207: members of one sparsified item
                                    //       placed in different stores
  kBenefitBookkeepingDrift = 208,   // V208: tuner's decayed-benefit ledger
                                    //       inconsistent (weights diverge
                                    //       from decay^epoch_age, negative /
                                    //       non-finite per-query benefit, or
                                    //       total != Σ weight·benefit)
  kReorgJournalInconsistent = 209,  // V209: a journal entry's applied flag
                                    //       disagrees with where its view
                                    //       actually resides in the catalogs
  kReorgRecoveryIncomplete = 210,   // V210: after crash recovery the journal
                                    //       is neither fully applied (resume)
                                    //       nor fully unapplied (rollback)
  kBreakerIllegalTransition = 211,  // V211: DW-health circuit breaker took
                                    //       an edge outside closed->open->
                                    //       half-open->{closed,open}
  kShedAccountingDrift = 212,       // V212: admitted sessions != completed
                                    //       + shed + failed at Finish
  kServerWaveStuck = 213,           // V213: watchdog saw N consecutive
                                    //       waves reduce without a single
                                    //       completed session
};

/// The stable token embedded in diagnostics, e.g. "V101".
std::string_view VerifyCodeToken(VerifyCode code);

/// Builds the canonical verifier Status: "[Vnnn] <detail>". Budget codes
/// map to StatusCode::kOutOfBudget, everything else to
/// StatusCode::kFailedPrecondition.
Status MakeVerifyError(VerifyCode code, std::string detail);

/// Parses the "[Vnnn]" token back out of a verifier Status message.
/// Returns kOk for OK statuses and nullopt for non-verifier statuses.
std::optional<VerifyCode> ExtractVerifyCode(const Status& status);

}  // namespace miso::verify

#endif  // MISO_VERIFY_ERROR_CODES_H_
