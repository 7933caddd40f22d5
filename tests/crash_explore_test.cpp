/**
 * @file
 * Crash-schedule explorer tests (nvfs::crash): site census over every
 * durable transition, per-mode crashes with their loss semantics, the
 * durability oracle (including the two deliberate-corruption tests
 * that prove it is not vacuous), recovery idempotence, quarantining
 * recovery's damage accounting, the NVRAM write-buffer ledger, the
 * registry's durable state against a full-copy reference, the
 * explorer's timers, env knob parsing, and delta-debug shrinking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "check/shrink.hpp"
#include "core/sim/experiments.hpp"
#include "crash/explore.hpp"
#include "crash/registry.hpp"
#include "lfs/log.hpp"
#include "lfs/recovery.hpp"
#include "nvram/crash_site.hpp"
#include "nvram/device.hpp"
#include "obs/obs.hpp"
#include "prep/converter.hpp"
#include "server/file_server.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace nvfs::lfs {

/** Test-only peer: corrupts durable state to prove the crash oracle
 *  catches mutations (a vacuously-passing checker would miss both). */
class CrashTestPeer
{
  public:
    /** Point one Write journal record of segment `id` at a block the
     *  segment never held — recovery silently drops the block. */
    static void
    corruptJournalRecord(LfsLog &log, std::uint32_t id)
    {
        for (JournalRecord &record : log.journals_.at(id)) {
            if (record.kind == JournalRecord::Kind::Write) {
                record.block += 9999;
                return;
            }
        }
        FAIL() << "segment " << id << " has no Write journal record";
    }

    /** Fail segment `id`'s summary checksum (media corruption). */
    static void
    corruptSealedSegment(LfsLog &log, std::uint32_t id)
    {
        log.segments_.at(id).corrupt = true;
    }
};

} // namespace nvfs::lfs

namespace nvfs {
namespace {

using crash::CrashSiteRegistry;
using lfs::CrashTestPeer;
using nvram::CrashAction;
using nvram::CrashSiteKind;
using workload::ServerOp;

lfs::LfsConfig
smallConfig()
{
    lfs::LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    return config;
}

std::uint64_t
countOf(const CrashSiteRegistry &registry, CrashSiteKind kind)
{
    return registry.sitesByKind()[static_cast<std::size_t>(kind)];
}

/** A small, time-sorted server workload with writes and fsyncs. */
std::vector<ServerOp>
smallWorkload()
{
    std::vector<ServerOp> ops;
    TimeUs t = kUsPerSecond;
    for (FileId file = 1; file <= 3; ++file) {
        for (std::uint32_t block = 0; block < 4; ++block) {
            ops.push_back({t, 0, file,
                           static_cast<Bytes>(block) * kBlockSize,
                           kBlockSize, ServerOp::Kind::Write});
            t += kUsPerSecond;
        }
        ops.push_back({t, 0, file, 0, 0, ServerOp::Kind::Fsync});
        t += kUsPerSecond;
    }
    return ops;
}

// ------------------------------------------------------- site census

TEST(CrashSiteCensus, CountsEveryDurableTransition)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);             // JournalAppend
    log.writeBlock(1, 1, kBlockSize);             // JournalAppend
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // Begin+2*Inode+Commit
    log.deleteFile(1);                            // JournalAppend
    log.writeBlock(2, 0, kBlockSize);             // JournalAppend
    log.truncate(2, 0);                           // JournalAppend
    log.takeCheckpoint(); // Checkpoint + Begin+Commit (journal-only)

    EXPECT_EQ(countOf(registry, CrashSiteKind::JournalAppend), 5u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::SealBegin), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::InodeUpdate), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::SealCommit), 2u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::Checkpoint), 1u);
    EXPECT_EQ(countOf(registry, CrashSiteKind::DevicePut), 0u);
    EXPECT_EQ(registry.sitesSeen(), 12u);
    EXPECT_FALSE(registry.crash().has_value());
    EXPECT_FALSE(registry.dead());
}

TEST(CrashSiteCensus, CountsDevicePuts)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    nvram::NvramDevice device;
    device.setCrashHook(&registry);
    registry.track(log, &device);

    EXPECT_TRUE(device.put(7, kBlockSize));
    EXPECT_TRUE(device.put(8, kBlockSize));
    EXPECT_EQ(countOf(registry, CrashSiteKind::DevicePut), 2u);
}

TEST(CrashSiteCensus, SnapshotsInodesAtEverySealCommit)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    EXPECT_TRUE(registry.tracked().front().durableInodes() ==
                log.inodes());

    log.writeBlock(1, 1, kBlockSize);
    // Unsealed: the durable state still reflects the first commit only.
    EXPECT_EQ(registry.tracked().front().durableInodes().blockCount(),
              1u);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    EXPECT_EQ(registry.tracked().front().durableInodes().blockCount(),
              2u);
}

// ------------------------------------------------- per-mode crashes

TEST(CrashModes, PowerFailAtJournalAppendLosesOnlyThatWrite)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // sites 2..4

    registry.armCrash(5);
    log.writeBlock(1, 1, kBlockSize); // crashes here, write lost
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::JournalAppend);
    EXPECT_EQ(registry.crash()->action, CrashAction::PowerFail);
    EXPECT_TRUE(log.crashed());
    EXPECT_EQ(log.pendingBytes(), 0u);

    // Post-crash operations are no-ops on the dead host.
    log.writeBlock(2, 0, kBlockSize);
    EXPECT_EQ(log.pendingBytes(), 0u);
    EXPECT_FALSE(log.seal(lfs::SealCause::Fsync));

    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, PowerFailAtSealBeginDropsTheOpenSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(2);             // the SealBegin
    EXPECT_FALSE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::SealBegin);
    EXPECT_TRUE(log.segments().empty());

    // The registry froze the pending set before the seal cleared it.
    const auto &fs = registry.tracked().front();
    ASSERT_EQ(fs.pendingAtCrash.size(), 1u);
    EXPECT_EQ(fs.pendingAtCrash.front(),
              (std::pair<FileId, std::uint32_t>{1, 0}));

    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, TornAtSealCommitMarksTheSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync)); // sites 2..4
    log.writeBlock(1, 1, kBlockSize);             // site 5
    registry.armCrash(8); // second seal's SealCommit
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::SealCommit);
    EXPECT_EQ(registry.crash()->action, CrashAction::Torn);
    EXPECT_EQ(registry.crash()->detail, log.segments().back().id);
    EXPECT_TRUE(log.segments().back().torn);

    // Strict recovery ends before the torn segment: only the first
    // commit's block is durable, exactly the oracle's snapshot.
    const auto strict = lfs::rollForward(log);
    EXPECT_TRUE(strict.stoppedAtTornSegment);
    EXPECT_EQ(strict.inodes.blockCount(), 1u);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, TornAtInodeUpdateMarksTheSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(3);             // first InodeUpdate of the seal
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::InodeUpdate);
    EXPECT_TRUE(log.segments().back().torn);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, PowerFailAtCheckpointYieldsEmptySnapshot)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize); // site 1
    registry.armCrash(2);             // the Checkpoint site
    const lfs::Checkpoint cp = log.takeCheckpoint();
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::Checkpoint);
    EXPECT_EQ(cp.nextSegment, 0u);
    EXPECT_EQ(cp.inodes.blockCount(), 0u);
    EXPECT_EQ(crash::verifyDurability(registry), std::nullopt);
}

TEST(CrashModes, DropAtDevicePutNeverCommits)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    nvram::NvramDevice device;
    device.setCrashHook(&registry);
    registry.track(log, &device);

    EXPECT_TRUE(device.put(7, kBlockSize)); // site 1
    registry.armCrash(2);
    EXPECT_FALSE(device.put(8, kBlockSize)); // dropped mid-write
    ASSERT_TRUE(registry.crash().has_value());
    EXPECT_EQ(registry.crash()->kind, CrashSiteKind::DevicePut);
    EXPECT_EQ(registry.crash()->action, CrashAction::Drop);
    EXPECT_EQ(registry.crash()->detail, 8u);
    EXPECT_TRUE(device.holds(7)); // previous contents intact
    EXPECT_FALSE(device.holds(8));

    // Dead host: later puts never happen and count no sites.
    EXPECT_FALSE(device.put(9, kBlockSize));
    EXPECT_EQ(registry.sitesSeen(), 2u);
}

// --------------------------------------- recovery idempotence (sat 2)

TEST(Recovery, RollForwardIsIdempotentOnACrashedLog)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(1, 1, kBlockSize);
    log.writeBlock(2, 0, kBlockSize);
    registry.armCrash(8); // second seal's second InodeUpdate
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_TRUE(log.segments().back().torn);

    const auto first = lfs::rollForward(log);
    const auto second = lfs::rollForward(log);
    EXPECT_TRUE(first == second);
    EXPECT_TRUE(first.inodes == second.inodes);

    const lfs::RecoveryOptions quarantine{true};
    const auto q1 = lfs::rollForward(log, nullptr, quarantine);
    const auto q2 = lfs::rollForward(log, nullptr, quarantine);
    EXPECT_TRUE(q1 == q2);
    EXPECT_TRUE(q1.report == q2.report);
}

// ------------------------------------- quarantining recovery report

TEST(Recovery, QuarantineSkipsDamagedSegmentAndReportsLoss)
{
    lfs::LfsLog log(smallConfig());
    // Segment 0: file 1, blocks 0-1.
    log.writeBlock(1, 0, kBlockSize);
    log.writeBlock(1, 1, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    // Segment 1: a delete of file 1 riding with file 2, block 0.
    log.deleteFile(1);
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    // Segment 2: file 3, block 0.
    log.writeBlock(3, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));

    CrashTestPeer::corruptSealedSegment(log, 1);

    // Strict recovery must abort at the corrupt segment.
    const auto strict = lfs::rollForward(log);
    EXPECT_TRUE(strict.stoppedAtTornSegment);
    EXPECT_EQ(strict.inodes.blockCount(), 2u); // segment 0 only

    // Quarantine skips it, keeps going, and accounts for the damage.
    const auto skipped =
        lfs::rollForward(log, nullptr, lfs::RecoveryOptions{true});
    EXPECT_FALSE(skipped.stoppedAtTornSegment);
    EXPECT_EQ(skipped.report.segmentsScanned, 3u);
    EXPECT_EQ(skipped.report.segmentsQuarantined, 1u);
    EXPECT_EQ(skipped.report.blocksLost, 1u);   // file 2, block 0
    EXPECT_EQ(skipped.report.metaOpsLost, 1u);  // the delete
    // File 1's blocks survive (the delete was lost with segment 1)
    // and segment 2's block is recovered past the damage.
    EXPECT_EQ(skipped.inodes.blockCount(), 3u);
    EXPECT_EQ(skipped.segmentsReplayed, 2u);
}

// --------------------------------- oracle mutation detection (sat 3)

TEST(OracleMutationDetection, FlagsACorruptedJournalRecord)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_EQ(crash::verifyDurability(registry), std::nullopt);

    CrashTestPeer::corruptJournalRecord(log,
                                        log.segments().back().id);
    const auto violation = crash::verifyDurability(registry);
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("diverges"), std::string::npos)
        << *violation;
}

TEST(OracleMutationDetection, FlagsACorruptedSealedSegment)
{
    CrashSiteRegistry registry;
    lfs::LfsLog log(smallConfig());
    log.setCrashHook(&registry);
    registry.track(log, nullptr);

    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    ASSERT_EQ(crash::verifyDurability(registry), std::nullopt);

    CrashTestPeer::corruptSealedSegment(log, 0);
    const auto violation = crash::verifyDurability(registry);
    ASSERT_TRUE(violation.has_value());
}

// --------------------------------------------- NVRAM ledger coverage

TEST(ServerNvramLedger, UnbufferedServerHasNoDevice)
{
    server::FileServer server({"/fs"}, server::ServerConfig{});
    EXPECT_EQ(server.nvramDevice(0), nullptr);
}

TEST(ServerNvramLedger, ReconcilesStagedTagsAfterSeals)
{
    server::ServerConfig config;
    config.nvramBufferBytes = 256 * kKiB;
    config.lfs.segmentBytes = 64 * kKiB;
    server::FileServer server({"/fs"}, config);
    server.run(smallWorkload());

    nvram::NvramDevice *device = server.nvramDevice(0);
    ASSERT_NE(device, nullptr);
    EXPECT_GT(device->writeAccesses(), 0u);
    // The shutdown drain sealed everything; every staged tag has been
    // reconciled away.
    EXPECT_TRUE(device->tags().empty());
}

// -------------------------------- durable state vs full-copy reference

/**
 * The declared reference for the registry's durable inode state: a
 * full copy of the origin log's inode map at every successful seal
 * commit.  Forwards every site to the registry under test, so both see
 * the same run and the same crash.
 */
class FullCopyReference : public nvram::CrashSiteHook
{
  public:
    explicit FullCopyReference(CrashSiteRegistry &registry)
        : registry_(registry)
    {
    }

    CrashAction
    onSite(CrashSiteKind kind, std::uint64_t detail,
           const void *origin) override
    {
        const CrashAction action =
            registry_.onSite(kind, detail, origin);
        if (kind == CrashSiteKind::SealCommit &&
            action == CrashAction::None) {
            committed_[origin] =
                static_cast<const lfs::LfsLog *>(origin)->inodes();
        }
        return action;
    }

    bool dead() const override { return registry_.dead(); }

    /** `log`'s inode map at its last successful seal commit. */
    lfs::InodeMap
    committed(const lfs::LfsLog &log) const
    {
        const auto it = committed_.find(&log);
        return it == committed_.end() ? lfs::InodeMap{} : it->second;
    }

  private:
    CrashSiteRegistry &registry_;
    std::map<const void *, lfs::InodeMap> committed_;
};

/** At a fired crash, every tracked log's durable state must equal
 *  the reference's. */
void
expectDurableMatches(const CrashSiteRegistry &registry,
                     const FullCopyReference &reference,
                     std::uint64_t site)
{
    ASSERT_TRUE(registry.crash().has_value()) << "site " << site;
    for (const CrashSiteRegistry::TrackedFs &fs : registry.tracked()) {
        EXPECT_TRUE(fs.durableInodes() == reference.committed(*fs.log))
            << "site " << site << " ("
            << nvram::crashSiteKindName(registry.crash()->kind) << ")";
    }
}

/** Sites `ops` reaches on a clean run. */
std::uint64_t
censusSites(const std::vector<ServerOp> &ops,
            const server::ServerConfig &config)
{
    CrashSiteRegistry census;
    server::FileServer server({"/fs"}, config);
    server.setCrashHook(&census);
    census.track(server.log(0), server.nvramDevice(0));
    server.run(ops);
    return census.sitesSeen();
}

/** Crash `ops` at `site` behind the reference and compare. */
void
expectServerMatchesReference(const std::vector<ServerOp> &ops,
                             const server::ServerConfig &config,
                             std::uint64_t site)
{
    CrashSiteRegistry registry;
    registry.armCrash(site);
    FullCopyReference reference(registry);
    server::FileServer server({"/fs"}, config);
    server.setCrashHook(&reference);
    registry.track(server.log(0), server.nvramDevice(0));
    server.run(ops, [&registry] { return registry.dead(); });
    expectDurableMatches(registry, reference, site);
}

/** Unbuffered and 512K-buffered servers. */
std::vector<server::ServerConfig>
bufferConfigs(Bytes segment_bytes)
{
    std::vector<server::ServerConfig> configs(2);
    configs[1].nvramBufferBytes = 512 * kKiB;
    for (server::ServerConfig &config : configs)
        config.lfs.segmentBytes = segment_bytes;
    return configs;
}

TEST(DurableState, MatchesFullCopyAtEverySiteOfSmallWorkload)
{
    const auto ops = smallWorkload();
    for (const server::ServerConfig &config : bufferConfigs(64 * kKiB)) {
        const std::uint64_t total = censusSites(ops, config);
        ASSERT_GT(total, 0u);
        for (std::uint64_t site = 1; site <= total; ++site)
            expectServerMatchesReference(ops, config, site);
    }
}

TEST(DurableState, MatchesFullCopyAtSampledSitesOfTraceThree)
{
    core::ModelConfig model;
    model.kind = core::ModelKind::Unified;
    const auto ops = core::collectServerOps(
        prep::convertTrace(workload::generateStandardTrace(3, 0.01)),
        model);
    const server::ServerConfig defaults;
    for (const server::ServerConfig &config :
         bufferConfigs(defaults.lfs.segmentBytes)) {
        const std::uint64_t total = censusSites(ops, config);
        ASSERT_GT(total, 200u);
        util::Rng rng(7);
        std::set<std::uint64_t> sites;
        while (sites.size() < 200)
            sites.insert(rng.uniformInt(1, total));
        for (const std::uint64_t site : sites)
            expectServerMatchesReference(ops, config, site);
    }
}

TEST(DurableState, MatchesFullCopyAtEverySiteOfDeletesAndTruncates)
{
    // The file server never deletes or truncates, so drive the log
    // directly: each change below hits blocks an earlier seal
    // committed, between two commits.
    const auto script = [](lfs::LfsLog &log) {
        for (std::uint32_t block = 0; block < 4; ++block) {
            log.writeBlock(1, block, kBlockSize);
            log.writeBlock(2, block, kBlockSize);
        }
        log.seal(lfs::SealCause::Fsync);
        log.deleteFile(1);
        log.truncate(2, kBlockSize);
        log.writeBlock(3, 0, kBlockSize);
        log.seal(lfs::SealCause::Fsync);
        log.writeBlock(2, 5, kBlockSize);
        log.truncate(2, 0);
        log.deleteFile(3);
        log.takeCheckpoint();
    };

    CrashSiteRegistry census;
    lfs::LfsLog clean(smallConfig());
    clean.setCrashHook(&census);
    census.track(clean, nullptr);
    script(clean);
    ASSERT_GT(census.sitesSeen(), 0u);

    for (std::uint64_t site = 1; site <= census.sitesSeen(); ++site) {
        CrashSiteRegistry registry;
        registry.armCrash(site);
        FullCopyReference reference(registry);
        lfs::LfsLog log(smallConfig());
        log.setCrashHook(&reference);
        registry.track(log, nullptr);
        script(log);
        expectDurableMatches(registry, reference, site);
    }
}

// ----------------------------------------------- end-to-end explore

TEST(Explore, BufferedServerSurvivesEveryCrashSite)
{
    crash::ExploreConfig config;
    config.server.nvramBufferBytes = 256 * kKiB;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto result = crash::explore(smallWorkload(), config);
    EXPECT_GT(result.sitesTotal, 0u);
    EXPECT_EQ(result.crashesExplored, result.sitesTotal);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().what;
    // Torn seals produce quarantine accounting across the sweep.
    EXPECT_GT(result.segmentsQuarantined, 0u);
}

TEST(Explore, UnbufferedServerSurvivesEveryCrashSite)
{
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto result = crash::explore(smallWorkload(), config);
    EXPECT_GT(result.sitesTotal, 0u);
    EXPECT_EQ(result.crashesExplored, result.sitesTotal);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().what;
}

#ifndef NVFS_NO_STATS
TEST(Explore, TimesOneCensusAndOneReplayAndOracleSpanPerCrash)
{
    const auto countOfTimer = [](const char *name) -> std::uint64_t {
        const obs::Snapshot snap = obs::snapshot();
        const obs::StatValue *entry = snap.find(name);
        return entry == nullptr ? 0 : entry->count;
    };
    const std::uint64_t census = countOfTimer("crash.census");
    const std::uint64_t replay = countOfTimer("crash.replay");
    const std::uint64_t oracle = countOfTimer("crash.oracle");

    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;
    const auto result = crash::explore(smallWorkload(), config);
    ASSERT_GT(result.crashesExplored, 0u);

    EXPECT_EQ(countOfTimer("crash.census") - census, 1u);
    EXPECT_EQ(countOfTimer("crash.replay") - replay,
              result.crashesExplored);
    EXPECT_EQ(countOfTimer("crash.oracle") - oracle,
              result.crashesExplored);
}
#endif // NVFS_NO_STATS

TEST(Explore, UnreachedArmedSiteIsAViolation)
{
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;

    const auto verdict =
        crash::exploreOne(smallWorkload(), config, 1000000);
    EXPECT_FALSE(verdict.crashed);
    ASSERT_TRUE(verdict.violation.has_value());
    EXPECT_NE(verdict.violation->what.find("never reached"),
              std::string::npos);
}

// -------------------------------------------------------- env knobs

TEST(Explore, CrashSitesEnvSelectsExplicitSites)
{
    ::setenv("NVFS_CRASH_SITES", "2,4,4", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;
    const auto result = crash::explore(smallWorkload(), config);
    ::unsetenv("NVFS_CRASH_SITES");
    EXPECT_EQ(result.crashesExplored, 2u); // deduplicated
    EXPECT_TRUE(result.violations.empty());
}

TEST(Explore, CrashSampleEnvSamplesSites)
{
    ::setenv("NVFS_CRASH_SAMPLE", "3", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    config.shrinkOnFailure = false;
    const auto result = crash::explore(smallWorkload(), config);
    ::unsetenv("NVFS_CRASH_SAMPLE");
    ASSERT_GT(result.sitesTotal, 3u);
    EXPECT_EQ(result.crashesExplored, 3u);
    EXPECT_TRUE(result.violations.empty());
}

TEST(ExploreDeathTest, MalformedCrashSitesIsFatal)
{
    ::setenv("NVFS_CRASH_SITES", "2,banana", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    EXPECT_EXIT(crash::explore(smallWorkload(), config),
                ::testing::ExitedWithCode(1), "banana");
    ::unsetenv("NVFS_CRASH_SITES");
}

TEST(ExploreDeathTest, NvfsFaultsIsFatal)
{
    // An armed NVFS_FAULTS plan would fire into the explored server
    // beside the explorer's own crashes and fake oracle violations.
    ::setenv("NVFS_FAULTS", "torn-seal:1", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    EXPECT_EXIT(crash::explore(smallWorkload(), config),
                ::testing::ExitedWithCode(1), "NVFS_FAULTS");
    ::unsetenv("NVFS_FAULTS");
}

TEST(ExploreDeathTest, ConflictingSiteKnobsAreFatal)
{
    ::setenv("NVFS_CRASH_SITES", "2", 1);
    ::setenv("NVFS_CRASH_SAMPLE", "3", 1);
    crash::ExploreConfig config;
    config.server.lfs.segmentBytes = 64 * kKiB;
    EXPECT_EXIT(crash::explore(smallWorkload(), config),
                ::testing::ExitedWithCode(1), "at most one");
    ::unsetenv("NVFS_CRASH_SITES");
    ::unsetenv("NVFS_CRASH_SAMPLE");
}

// -------------------------------------------------- delta shrinking

TEST(DeltaShrink, MinimizesToTheSingleCulprit)
{
    std::vector<int> items(20);
    for (int i = 0; i < 20; ++i)
        items[static_cast<std::size_t>(i)] = i + 1;
    const auto shrunk = check::deltaShrink(
        items, [](const std::vector<int> &candidate) {
            return std::find(candidate.begin(), candidate.end(), 13) !=
                   candidate.end();
        });
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk.front(), 13);
}

TEST(DeltaShrink, KeepsInteractingPair)
{
    std::vector<int> items(16);
    for (int i = 0; i < 16; ++i)
        items[static_cast<std::size_t>(i)] = i;
    const auto shrunk = check::deltaShrink(
        items, [](const std::vector<int> &candidate) {
            const bool a = std::find(candidate.begin(),
                                     candidate.end(),
                                     3) != candidate.end();
            const bool b = std::find(candidate.begin(),
                                     candidate.end(),
                                     11) != candidate.end();
            return a && b;
        });
    ASSERT_EQ(shrunk.size(), 2u);
    EXPECT_EQ(shrunk[0], 3);
    EXPECT_EQ(shrunk[1], 11);
}

} // namespace
} // namespace nvfs
