/**
 * @file
 * Fault-injection tests (nvfs::check): torn segment writes, power
 * failures mid-seal, dropped NVRAM writes, and the recovery
 * guarantees the paper's reliability argument rests on — after any
 * injected fault, roll-forward rebuilds a consistent inode map and
 * loses at most the data that was never made durable.
 */

#include <gtest/gtest.h>

#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "nvram/device.hpp"
#include "nvram/fault.hpp"
#include "server/file_server.hpp"
#include "util/audit.hpp"

namespace nvfs::lfs {

/** Test-only peer: corrupts log internals to prove the audits fire. */
class AuditTestPeer
{
  public:
    static void corruptStats(LfsLog &log) { ++log.stats_.dataBytes; }

    static void corruptLiveBytes(LfsLog &log)
    {
        ++log.segments_.back().liveBytes;
    }

    static void dropJournal(LfsLog &log) { log.journals_.pop_back(); }
};

namespace {

using nvram::CrashAction;
using nvram::CrashSiteKind;
using nvram::FaultEvent;
using nvram::FaultPlan;
using nvram::NvramDevice;

LfsConfig
smallConfig()
{
    LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    return config;
}

// ------------------------------------------------- FaultPlan parsing

TEST(FaultPlan, ParsesSpec)
{
    const auto plan =
        FaultPlan::fromSpec("torn-seal:2,power-fail:5,device-drop:1");
    ASSERT_TRUE(plan.has_value());
    FaultPlan mutable_plan = *plan;
    const auto at = [&](CrashSiteKind kind) {
        return mutable_plan.onSite(kind, 0, nullptr);
    };
    EXPECT_EQ(at(CrashSiteKind::SealBegin), CrashAction::None);
    EXPECT_EQ(at(CrashSiteKind::SealBegin), CrashAction::Torn);
    EXPECT_EQ(at(CrashSiteKind::DevicePut), CrashAction::Drop);
    EXPECT_EQ(at(CrashSiteKind::DevicePut), CrashAction::None);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:x").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:0").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:-3").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("torn-seal:2x").has_value());
    EXPECT_FALSE(FaultPlan::fromSpec("meteor-strike:1").has_value());
    // Empty specs / items are benign: a plan with nothing armed.
    EXPECT_TRUE(FaultPlan::fromSpec("").has_value());
    EXPECT_TRUE(
        FaultPlan::fromSpec("torn-seal:1,,power-fail:2").has_value());
}

TEST(FaultPlan, FromEnvReadsNvfsFaults)
{
    ::setenv("NVFS_FAULTS", "power-fail:3", 1);
    const auto plan = FaultPlan::fromEnv();
    ::unsetenv("NVFS_FAULTS");
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(FaultPlan::fromEnv().has_value());
}

TEST(FaultPlan, RecordsFiredEvents)
{
    FaultPlan plan;
    plan.tearSealAt(2);
    EXPECT_FALSE(plan.anyFired());
    plan.onSite(CrashSiteKind::SealBegin, 0, nullptr);
    plan.onSite(CrashSiteKind::SealBegin, 0, nullptr);
    ASSERT_EQ(plan.fired().size(), 1u);
    EXPECT_EQ(plan.fired()[0],
              (FaultEvent{FaultEvent::Kind::TornSeal, 2}));
    EXPECT_EQ(plan.sealsSeen(), 2u);
}

TEST(FaultPlan, CountsOnlyItsOwnSitesAndNeverGoesDead)
{
    // The other site kinds pass through uncounted, and a fired fault
    // leaves the host running: later indices still fire.
    FaultPlan plan;
    plan.tearSealAt(1);
    plan.dropDeviceWriteAt(2);
    for (const CrashSiteKind kind :
         {CrashSiteKind::InodeUpdate, CrashSiteKind::SealCommit,
          CrashSiteKind::JournalAppend, CrashSiteKind::Checkpoint}) {
        EXPECT_EQ(plan.onSite(kind, 0, nullptr), CrashAction::None);
    }
    EXPECT_EQ(plan.sealsSeen(), 0u);
    EXPECT_EQ(plan.deviceWritesSeen(), 0u);
    EXPECT_EQ(plan.onSite(CrashSiteKind::SealBegin, 0, nullptr),
              CrashAction::Torn);
    EXPECT_FALSE(plan.dead());
    EXPECT_EQ(plan.onSite(CrashSiteKind::DevicePut, 7, nullptr),
              CrashAction::None);
    EXPECT_EQ(plan.onSite(CrashSiteKind::DevicePut, 7, nullptr),
              CrashAction::Drop);
    EXPECT_FALSE(plan.dead());
}

TEST(FaultPlan, NvfsFaultsArmsTheFileServer)
{
    // NVFS_FAULTS must reach real drivers, not just unit tests: a
    // FileServer constructed with it set arms every log.
    ::setenv("NVFS_FAULTS", "torn-seal:1", 1);
    server::ServerConfig config;
    config.lfs.segmentBytes = 64 * kKiB;
    server::FileServer srv({"fs0"}, config);
    ::unsetenv("NVFS_FAULTS");

    LfsLog &log = srv.log(0);
    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    EXPECT_TRUE(log.segments().back().torn);

    // Unset env arms nothing.
    server::FileServer clean({"fs0"}, config);
    clean.log(0).writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(clean.log(0).seal(SealCause::Fsync));
    EXPECT_FALSE(clean.log(0).segments().back().torn);
}

TEST(FaultPlan, NvfsFaultsCountsSealsAcrossFileSystems)
{
    // One plan serves the whole server: seal indices count across
    // every file system's log, in the order the seals happen.
    ::setenv("NVFS_FAULTS", "torn-seal:2", 1);
    server::ServerConfig config;
    config.lfs.segmentBytes = 64 * kKiB;
    server::FileServer srv({"fs0", "fs1"}, config);
    ::unsetenv("NVFS_FAULTS");

    srv.log(0).writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(srv.log(0).seal(SealCause::Fsync)); // seal 1
    srv.log(1).writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(srv.log(1).seal(SealCause::Fsync)); // seal 2: torn
    EXPECT_FALSE(srv.log(0).segments().back().torn);
    EXPECT_TRUE(srv.log(1).segments().back().torn);
}

TEST(FaultPlan, DeviceDropHitsTheBufferedServersLedger)
{
    // NVFS_FAULTS=device-drop:N must reach the NVRAM write buffer a
    // buffered server stages every block in, not only the logs.
    ::setenv("NVFS_FAULTS", "device-drop:1", 1);
    server::ServerConfig config;
    config.lfs.segmentBytes = 64 * kKiB;
    config.nvramBufferBytes = 512 * kKiB;
    server::FileServer srv({"fs0"}, config);
    ::unsetenv("NVFS_FAULTS");

    using workload::ServerOp;
    ServerOp write;
    write.kind = ServerOp::Kind::Write;
    write.time = 1;
    write.file = 3;
    write.length = kBlockSize;
    ServerOp fsync = write;
    fsync.kind = ServerOp::Kind::Fsync;
    fsync.time = 2;
    // Stop (without the shutdown drain) once the fsync has staged the
    // block: the drain would seal it and empty the ledger.
    const std::vector<ServerOp> ops{write, fsync, write};
    int checks = 0;
    srv.run(ops, [&checks] { return ++checks > 2; });

    const nvram::NvramDevice *ledger = srv.nvramDevice(0);
    ASSERT_NE(ledger, nullptr);
    EXPECT_EQ(srv.stats(0).fsyncsAbsorbed, 1u);
    EXPECT_EQ(srv.log(0).pendingBytes(), kBlockSize);
    // The staging put was issued (one write access) and dropped: the
    // ledger does not hold the block's tag (file 3 << 32 | block 0).
    EXPECT_EQ(ledger->writeAccesses(), 1u);
    EXPECT_FALSE(ledger->holds(std::uint64_t{3} << 32));
    EXPECT_EQ(ledger->usedBytes(), 0u);
}

// --------------------------------------------------- torn seg writes

TEST(FaultInjection, TornFinalSegmentLosesOnlyItsOwnData)
{
    // Two good seals, then the final segment write is torn: its
    // summary never reaches the disk.  Recovery must stop there,
    // keeping everything sealed before the tear.
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(3);
    log.setCrashHook(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(3, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // torn: host can't tell
    EXPECT_TRUE(plan.anyFired());
    EXPECT_TRUE(log.segments().back().torn);

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.segmentsReplayed, 2u);
    // Everything durable before the tear survives...
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_TRUE(result.inodes.locate(2, 0).has_value());
    // ...and exactly the torn segment's data is lost.
    EXPECT_FALSE(result.inodes.locate(3, 0).has_value());
    EXPECT_EQ(result.inodes.blockCount(), 2u);
}

TEST(FaultInjection, TornMiddleSegmentTruncatesTheLog)
{
    // A tear in the middle: later segments were written after the
    // torn one, but recovery cannot parse past the missing summary —
    // the log effectively ends at the tear.
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(2);
    log.setCrashHook(&plan);

    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);
    log.writeBlock(2, 0, kBlockSize);
    log.seal(SealCause::Fsync); // torn
    log.writeBlock(3, 0, kBlockSize);
    log.seal(SealCause::Fsync); // written, but unreachable

    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.segmentsReplayed, 1u);
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(2, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(3, 0).has_value());
}

TEST(FaultInjection, TornWriteGoesUndetectedWithoutTheFaultPlan)
{
    // The pre-nvfs::check behavior: the in-memory state after a torn
    // seal is indistinguishable from a successful one — stats,
    // invariants, and the live inode map all look perfectly healthy.
    // Only replaying recovery (or arming the plan) exposes the loss.
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(1);
    log.setCrashHook(&plan);
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    // The host's view: everything succeeded.
    EXPECT_NO_THROW(log.auditInvariants());
    EXPECT_TRUE(log.inodes().locate(1, 0).has_value());
    EXPECT_EQ(log.stats().segmentsWritten, 1u);

    // The disk's view: the data is gone.
    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.stoppedAtTornSegment);
    EXPECT_EQ(result.inodes.blockCount(), 0u);
    EXPECT_FALSE(result.inodes == log.inodes());
}

// ------------------------------------------------------ power failure

TEST(FaultInjection, PowerFailDropsTheOpenSegment)
{
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.powerFailAt(2);
    log.setCrashHook(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync)); // power died
    EXPECT_TRUE(plan.anyFired());

    // Nothing half-written: the open segment's volatile contents are
    // simply gone and the log is still internally consistent.
    EXPECT_EQ(log.pendingBytes(), 0u);
    EXPECT_EQ(log.segments().size(), 1u);
    EXPECT_NO_THROW(log.auditInvariants());

    // Recovery agrees with the survivor's in-memory map: only the
    // unsynced tail was lost.
    const RecoveryResult result = rollForward(log);
    EXPECT_FALSE(result.stoppedAtTornSegment);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_TRUE(result.inodes.locate(1, 0).has_value());
    EXPECT_FALSE(result.inodes.locate(2, 0).has_value());
}

TEST(FaultInjection, LogStaysUsableAfterPowerFail)
{
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.powerFailAt(1);
    log.setCrashHook(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync));

    // Post-recovery the log keeps working: new writes seal fine.
    log.writeBlock(1, 1, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    EXPECT_NO_THROW(log.auditInvariants());
    const RecoveryResult result = rollForward(log);
    EXPECT_TRUE(result.inodes == log.inodes());
    EXPECT_TRUE(result.inodes.locate(1, 1).has_value());
    EXPECT_FALSE(result.inodes.locate(1, 0).has_value());
}

// ------------------------------------------------------ index semantics

TEST(FaultInjection, PowerFailedSealStillCountsAsASeal)
{
    auto plan = FaultPlan::fromSpec("power-fail:2,torn-seal:3");
    ASSERT_TRUE(plan.has_value());
    LfsLog log(smallConfig());
    log.setCrashHook(&*plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // seal 1
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync)); // seal 2: power fails
    EXPECT_EQ(log.pendingBytes(), 0u);
    EXPECT_EQ(log.segments().size(), 1u);
    log.writeBlock(3, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // seal 3: torn
    ASSERT_EQ(log.segments().size(), 2u);
    EXPECT_TRUE(log.segments().back().torn);
    EXPECT_EQ(plan->fired(),
              (std::vector<FaultEvent>{
                  {FaultEvent::Kind::PowerFail, 2},
                  {FaultEvent::Kind::TornSeal, 3}}));
}

TEST(FaultInjection, PowerFailBeatsTornAtTheSameIndex)
{
    auto plan = FaultPlan::fromSpec("torn-seal:2,power-fail:2");
    ASSERT_TRUE(plan.has_value());
    LfsLog log(smallConfig());
    log.setCrashHook(&*plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_FALSE(log.seal(SealCause::Fsync)); // power-fail, not torn
    EXPECT_EQ(log.segments().size(), 1u);
    EXPECT_FALSE(log.segments().back().torn);
    EXPECT_EQ(plan->fired(),
              (std::vector<FaultEvent>{
                  {FaultEvent::Kind::PowerFail, 2}}));
}

TEST(FaultInjection, LogKeepsSealingAfterATornSeal)
{
    // A torn seal fires and the host carries on: later seals are
    // written normally (recovery still stops at the tear).
    LfsLog log(smallConfig());
    FaultPlan plan;
    plan.tearSealAt(1);
    log.setCrashHook(&plan);

    log.writeBlock(1, 0, kBlockSize);
    EXPECT_TRUE(log.seal(SealCause::Fsync)); // torn
    for (std::uint32_t b = 1; b <= 3; ++b) {
        log.writeBlock(1, b, kBlockSize);
        EXPECT_TRUE(log.seal(SealCause::Fsync));
        EXPECT_FALSE(log.segments().back().torn);
    }
    EXPECT_EQ(log.segments().size(), 4u);
    EXPECT_TRUE(log.segments().front().torn);
    EXPECT_EQ(plan.sealsSeen(), 4u);
    EXPECT_EQ(plan.fired().size(), 1u);
    EXPECT_NO_THROW(log.auditInvariants());
    EXPECT_TRUE(rollForward(log).stoppedAtTornSegment);
}

// -------------------------------------------------- NVRAM device drop

TEST(FaultInjection, DeviceDropKeepsPreviousContents)
{
    NvramDevice device;
    FaultPlan plan;
    plan.dropDeviceWriteAt(2);
    device.setCrashHook(&plan);

    EXPECT_TRUE(device.put(7, 100));
    EXPECT_FALSE(device.put(7, 500)); // dropped mid-write
    EXPECT_TRUE(plan.anyFired());

    // The old value survives — a dropped write must not tear the tag.
    const auto stored = device.get(7);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, 100u);
    EXPECT_EQ(device.usedBytes(), 100u);
    // The attempt still cost a write access.
    EXPECT_EQ(device.writeAccesses(), 2u);
}

// ------------------------------------------- audits catch corruption

TEST(AuditDetection, CorruptedStatsThrow)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);
    EXPECT_NO_THROW(log.auditInvariants());

    AuditTestPeer::corruptStats(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

TEST(AuditDetection, CorruptedLiveBytesThrow)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    AuditTestPeer::corruptLiveBytes(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

TEST(AuditDetection, MissingJournalThrows)
{
    LfsLog log(smallConfig());
    log.writeBlock(1, 0, kBlockSize);
    log.seal(SealCause::Fsync);

    AuditTestPeer::dropJournal(log);
    EXPECT_THROW(log.auditInvariants(), util::AuditError);
}

TEST(AuditDetection, CheckInvariantsStillPassesOnHealthyLog)
{
    LfsLog log(smallConfig());
    for (std::uint32_t b = 0; b < 20; ++b)
        log.writeBlock(1, b, kBlockSize);
    log.deleteFile(1);
    log.writeBlock(2, 0, 1000);
    log.seal(SealCause::Timeout);
    log.truncate(2, 500);
    EXPECT_NO_THROW(log.auditInvariants());
    log.checkInvariants(); // panic-wrapper flavor stays callable
}

} // namespace
} // namespace nvfs::lfs
