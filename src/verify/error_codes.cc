#include "verify/error_codes.h"

#include <cstdio>
#include <cstdlib>

namespace miso::verify {

std::string_view VerifyCodeToken(VerifyCode code) {
  switch (code) {
    case VerifyCode::kOk:
      return "V000";
    case VerifyCode::kPlanEmpty:
      return "V100";
    case VerifyCode::kPlanCycle:
      return "V101";
    case VerifyCode::kPlanArity:
      return "V102";
    case VerifyCode::kPlanSchema:
      return "V103";
    case VerifyCode::kPlanViewUnresolved:
      return "V104";
    case VerifyCode::kPlanTooLarge:
      return "V105";
    case VerifyCode::kSplitBackEdge:
      return "V120";
    case VerifyCode::kSplitNotDwExecutable:
      return "V121";
    case VerifyCode::kSplitViewWrongSide:
      return "V122";
    case VerifyCode::kSplitCutInconsistent:
      return "V123";
    case VerifyCode::kSplitForeignNode:
      return "V124";
    case VerifyCode::kSplitDuplicateNode:
      return "V125";
    case VerifyCode::kSplitBytesMismatch:
      return "V126";
    case VerifyCode::kWhatIfAnswerDrift:
      return "V130";
    case VerifyCode::kDesignHvOverBudget:
      return "V200";
    case VerifyCode::kDesignDwOverBudget:
      return "V201";
    case VerifyCode::kDesignTransferOverBudget:
      return "V202";
    case VerifyCode::kDesignDuplicatePlacement:
      return "V203";
    case VerifyCode::kDesignAccountingDrift:
      return "V204";
    case VerifyCode::kReorgUnknownView:
      return "V205";
    case VerifyCode::kReorgDuplicateMove:
      return "V206";
    case VerifyCode::kMergedItemSplit:
      return "V207";
    case VerifyCode::kBenefitBookkeepingDrift:
      return "V208";
    case VerifyCode::kReorgJournalInconsistent:
      return "V209";
    case VerifyCode::kReorgRecoveryIncomplete:
      return "V210";
    case VerifyCode::kBreakerIllegalTransition:
      return "V211";
    case VerifyCode::kShedAccountingDrift:
      return "V212";
    case VerifyCode::kServerWaveStuck:
      return "V213";
  }
  return "V???";
}

Status MakeVerifyError(VerifyCode code, std::string detail) {
  std::string message = "[";
  message += VerifyCodeToken(code);
  message += "] ";
  message += detail;
  switch (code) {
    case VerifyCode::kDesignHvOverBudget:
    case VerifyCode::kDesignDwOverBudget:
    case VerifyCode::kDesignTransferOverBudget:
      return Status::OutOfBudget(std::move(message));
    default:
      return Status::FailedPrecondition(std::move(message));
  }
}

std::optional<VerifyCode> ExtractVerifyCode(const Status& status) {
  if (status.ok()) return VerifyCode::kOk;
  const std::string& msg = status.message();
  if (msg.size() < 6 || msg[0] != '[' || msg[1] != 'V' || msg[5] != ']') {
    return std::nullopt;
  }
  const int num = std::atoi(msg.substr(2, 3).c_str());
  const VerifyCode code = static_cast<VerifyCode>(num);
  // Round-trip through the token table to reject unknown numbers.
  if (VerifyCodeToken(code) == "V???") return std::nullopt;
  return code;
}

}  // namespace miso::verify
