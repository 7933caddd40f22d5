/**
 * @file
 * Fault injection for the nvfs::check subsystem.
 *
 * A FaultPlan is a scripted CrashSiteHook: it arms faults at 1-based
 * event indices and fires them as the instrumented components reach
 * the matching crash sites:
 *
 *  - torn-seal:N    the Nth segment write of an LfsLog is interrupted
 *                   after its data but before its summary block.  The
 *                   summary is what makes a segment parseable, so on
 *                   recovery the whole segment — and the log after it,
 *                   which was never written — is lost.
 *  - power-fail:N   power is lost just as the Nth segment write would
 *                   begin: nothing reaches the disk and the open
 *                   segment's volatile contents vanish.
 *  - device-drop:N  the Nth NvramDevice::put() is dropped mid-write;
 *                   the device keeps its previous contents for the tag.
 *
 * Unlike the crash explorer's registry, a plan fires and continues: it
 * never declares the host dead, so the run goes on after each fault
 * and later indices still fire.  Indices count across every log and
 * device the plan is attached to; a power-failed seal still counts as
 * a seal, and power-fail wins over torn-seal at the same index.
 *
 * The plan records every fault that actually fired so tests can assert
 * exact loss accounting.  Plans are plain state machines: not thread
 * safe, one per injected component graph.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "nvram/crash_site.hpp"

namespace nvfs::nvram {

/** One fault that fired. */
struct FaultEvent
{
    enum class Kind : std::uint8_t { TornSeal, PowerFail, DeviceDrop };

    Kind kind = Kind::TornSeal;
    std::uint64_t at = 0; ///< 1-based event index it fired on

    bool operator==(const FaultEvent &other) const = default;
};

/** Armed faults plus counters of the events seen so far. */
class FaultPlan : public CrashSiteHook
{
  public:
    FaultPlan() = default;

    /** Arm: the Nth segment write loses its summary block. */
    void tearSealAt(std::uint64_t nth) { tornSeals_.insert(nth); }

    /** Arm: power dies as the Nth segment write would begin. */
    void powerFailAt(std::uint64_t nth) { powerFails_.insert(nth); }

    /** Arm: the Nth NVRAM put() is dropped. */
    void dropDeviceWriteAt(std::uint64_t nth)
    {
        deviceDrops_.insert(nth);
    }

    /**
     * Parse "kind:n[,kind:n...]" with kinds torn-seal, power-fail,
     * device-drop and n a positive integer.  Returns nullopt (after a
     * warning) on malformed input rather than a half-armed plan.
     */
    static std::optional<FaultPlan> fromSpec(const std::string &spec);

    /**
     * Parse NVFS_FAULTS; nullopt when unset or empty.  A malformed
     * spec is a hard error (util::fatal) naming the offending token —
     * silently disabling armed fault injection would let a run claim
     * crash coverage it never had.
     */
    static std::optional<FaultPlan> fromEnv();

    /**
     * Counts SealBegin and DevicePut sites and answers PowerFail,
     * Torn or Drop at the armed indices; None everywhere else.
     */
    CrashAction onSite(CrashSiteKind kind, std::uint64_t detail,
                       const void *origin) override;

    /** Segment writes attempted so far. */
    std::uint64_t sealsSeen() const { return seals_; }

    /** Device puts attempted so far. */
    std::uint64_t deviceWritesSeen() const { return deviceWrites_; }

    /** Every fault that fired, in firing order. */
    const std::vector<FaultEvent> &fired() const { return fired_; }

    /** True once any armed fault has fired. */
    bool anyFired() const { return !fired_.empty(); }

  private:
    std::set<std::uint64_t> tornSeals_;
    std::set<std::uint64_t> powerFails_;
    std::set<std::uint64_t> deviceDrops_;
    std::uint64_t seals_ = 0;
    std::uint64_t deviceWrites_ = 0;
    std::vector<FaultEvent> fired_;
};

} // namespace nvfs::nvram
