#include "nvram/fault.hpp"

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace nvfs::nvram {

namespace {

/**
 * Shared parser: fills `plan`, or returns a description naming the
 * offending token.  fromSpec() and fromEnv() differ only in what they
 * do with the description.
 */
std::optional<std::string>
parseSpec(const std::string &spec, FaultPlan &plan)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            return util::format("fault spec item '%s' has no ':<n>'",
                                item.c_str());
        }
        const std::string kind = item.substr(0, colon);
        const auto nth = util::tryParseInt(item.substr(colon + 1));
        if (!nth || *nth <= 0) {
            return util::format(
                "fault spec item '%s' needs a positive event index",
                item.c_str());
        }
        const auto at = static_cast<std::uint64_t>(*nth);
        if (kind == "torn-seal") {
            plan.tearSealAt(at);
        } else if (kind == "power-fail") {
            plan.powerFailAt(at);
        } else if (kind == "device-drop") {
            plan.dropDeviceWriteAt(at);
        } else {
            return util::format("unknown fault kind '%s' (want "
                                "torn-seal, power-fail, or "
                                "device-drop)",
                                kind.c_str());
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<FaultPlan>
FaultPlan::fromSpec(const std::string &spec)
{
    FaultPlan plan;
    if (const auto error = parseSpec(spec, plan)) {
        util::warn(*error);
        return std::nullopt;
    }
    return plan;
}

std::optional<FaultPlan>
FaultPlan::fromEnv()
{
    const char *spec = util::envRaw("NVFS_FAULTS");
    if (spec == nullptr || *spec == '\0')
        return std::nullopt;
    FaultPlan plan;
    if (const auto error = parseSpec(spec, plan)) {
        // A malformed spec must not silently disable fault injection:
        // the user armed faults and would otherwise believe the run
        // was tested under them.  Hard error, naming the token.
        util::fatal("NVFS_FAULTS: " + *error);
    }
    return plan;
}

CrashAction
FaultPlan::onSite(CrashSiteKind kind, std::uint64_t /*detail*/,
                  const void * /*origin*/)
{
    if (kind == CrashSiteKind::SealBegin) {
        ++seals_;
        if (powerFails_.count(seals_) != 0) {
            fired_.push_back({FaultEvent::Kind::PowerFail, seals_});
            return CrashAction::PowerFail;
        }
        if (tornSeals_.count(seals_) != 0) {
            fired_.push_back({FaultEvent::Kind::TornSeal, seals_});
            return CrashAction::Torn;
        }
    } else if (kind == CrashSiteKind::DevicePut) {
        ++deviceWrites_;
        if (deviceDrops_.count(deviceWrites_) != 0) {
            fired_.push_back(
                {FaultEvent::Kind::DeviceDrop, deviceWrites_});
            return CrashAction::Drop;
        }
    }
    return CrashAction::None;
}

} // namespace nvfs::nvram
