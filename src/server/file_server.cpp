#include "server/file_server.hpp"

#include <algorithm>
#include <unordered_set>

#include "nvram/crash_site.hpp"
#include "util/log.hpp"

namespace nvfs::server {

using workload::ServerOp;

namespace {

/** NVRAM ledger tag for one file block. */
std::uint64_t
blockTag(FileId file, std::uint32_t block)
{
    return (static_cast<std::uint64_t>(file) << 32) | block;
}

} // namespace

FileServer::FileServer(std::vector<std::string> fs_names,
                       const ServerConfig &config)
    : config_(config)
{
    NVFS_REQUIRE(!fs_names.empty(), "server needs file systems");
    if (auto plan = nvram::FaultPlan::fromEnv()) {
        faults_ = std::make_unique<nvram::FaultPlan>(std::move(*plan));
        util::inform("NVFS_FAULTS armed (indices count across all "
                     "file systems)");
    }
    state_.reserve(fs_names.size());
    for (auto &name : fs_names) {
        auto fs = std::make_unique<FsState>(config_.lfs);
        fs->stats.name = std::move(name);
        if (config_.nvramBufferBytes > 0) {
            // The ledger never enforces capacity — the overflow seal
            // in run() does that against nvramBufferBytes — so give
            // the device room for any transient staging excess.
            nvram::DeviceParams params;
            params.capacity = static_cast<Bytes>(1) << 40;
            fs->nvram = std::make_unique<nvram::NvramDevice>(params);
        }
        state_.push_back(std::move(fs));
    }
    if (faults_)
        setCrashHook(faults_.get());
}

nvram::NvramDevice *
FileServer::nvramDevice(FsId fs)
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    return state_[fs]->nvram.get();
}

void
FileServer::setCrashHook(nvram::CrashSiteHook *hook)
{
    if (faults_ && hook != faults_.get()) {
        // Two hooks would fire into one server: the plan's faults
        // break the other hook's ground truth (the explorer's oracle
        // would flag false violations at its crashes).
        util::fatal("NVFS_FAULTS is armed and cannot share the file "
                    "server with another crash-site hook (crash "
                    "exploration injects its own faults); unset "
                    "NVFS_FAULTS");
    }
    crashHook_ = hook;
    for (auto &fs : state_) {
        fs->log.setCrashHook(hook);
        if (fs->nvram)
            fs->nvram->setCrashHook(hook);
    }
}

bool
FileServer::crashed() const
{
    return crashHook_ != nullptr && crashHook_->dead();
}

const FsStats &
FileServer::stats(FsId fs) const
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    return state_[fs]->stats;
}

lfs::LfsLog &
FileServer::log(FsId fs)
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    return state_[fs]->log;
}

std::uint64_t
FileServer::totalDiskWrites() const
{
    std::uint64_t total = 0;
    for (const auto &fs : state_)
        total += fs->log.stats().segmentsWritten;
    return total;
}

Bytes
FileServer::totalDataBytes() const
{
    Bytes total = 0;
    for (const auto &fs : state_)
        total += fs->log.stats().dataBytes;
    return total;
}

void
FileServer::auditInvariants() const
{
    for (const auto &fs : state_) {
        fs->log.auditInvariants();
        fs->dirty.auditInvariants();
    }
}

void
FileServer::stageBlock(FsState &fs, const cache::BlockId &id, TimeUs now)
{
    const cache::CacheBlock block = fs.dirty.remove(id);
    if (!block.isDirty())
        return;
    // Buffered mode: the block enters the NVRAM write buffer first —
    // it is durable from here on even though the segment holding it
    // has not been written (the paper's central reliability claim).
    if (fs.nvram && !crashed())
        fs.nvram->put(blockTag(id.file, id.index),
                      block.dirty.totalBytes());
    const std::size_t sealed_before = fs.log.segments().size();
    for (const auto &run : block.dirty.runs())
        fs.log.writeBlockRange(id.file, id.index, run.begin, run.end);
    if (fs.log.segments().size() != sealed_before)
        reconcileNvram(fs); // a Full segment auto-sealed mid-append
    if (fs.pendingSince == kNoTime && fs.log.pendingBytes() > 0)
        fs.pendingSince = now;
    if (fs.log.pendingBytes() == 0)
        fs.pendingSince = kNoTime; // auto-sealed Full
}

void
FileServer::reconcileNvram(FsState &fs)
{
    // On a dead host nothing drains: the ledger must keep exactly
    // what was staged at the instant of the crash.
    if (!fs.nvram || crashed())
        return;
    std::unordered_set<std::uint64_t> pending;
    for (const auto &[file, block] : fs.log.pendingBlocks())
        pending.insert(blockTag(file, block));
    for (const std::uint64_t tag : fs.nvram->tags()) {
        if (pending.count(tag) == 0)
            fs.nvram->erase(tag); // its segment sealed to disk
    }
}

void
FileServer::sweep(FsState &fs, TimeUs now)
{
    // Flush volatile blocks older than the write-back age.
    bool flushed = false;
    for (const cache::BlockId &id :
         fs.dirty.dirtyOlderThan(now - config_.writeBackAge)) {
        stageBlock(fs, id, now);
        flushed = true;
    }
    // Seal when volatile data was flushed.  NVRAM-buffered data does
    // not age to disk on its own: "the writes would remain in the
    // NVRAM buffer until a whole segment accumulated" — it rides out
    // with the next natural flush or with an auto-sealed full segment.
    if (flushed) {
        if (fs.log.seal(lfs::SealCause::Timeout)) {
            fs.pendingSince = kNoTime;
            reconcileNvram(fs);
        }
    }
    // On a bounded disk the garbage collector reclaims dead segments
    // when free space runs low.
    fs.cleaner.maybeClean(fs.log);
}

void
FileServer::advanceClock(TimeUs now)
{
    while (lastSweep_ + config_.sweepInterval <= now) {
        lastSweep_ += config_.sweepInterval;
        for (auto &fs : state_)
            sweep(*fs, lastSweep_);
    }
}

void
FileServer::run(const std::vector<ServerOp> &ops)
{
    run(ops, {});
}

void
FileServer::run(const std::vector<ServerOp> &ops,
                const std::function<bool()> &stop)
{
    const bool buffered = config_.nvramBufferBytes > 0;
    TimeUs last = 0;

    for (const ServerOp &op : ops) {
        if ((stop && stop()) || crashed())
            break; // the host went down mid-stream
        NVFS_REQUIRE(op.time >= last, "server ops out of order");
        last = op.time;
        advanceClock(op.time);
        NVFS_REQUIRE(op.fs < state_.size(), "bad fs id in op");
        FsState &fs = *state_[op.fs];

        switch (op.kind) {
          case ServerOp::Kind::Write: {
            fs.stats.arrivedBytes += op.length;
            // Scatter the range across 4 KB blocks in the dirty pool.
            Bytes begin = op.offset;
            const Bytes end = op.offset + op.length;
            while (begin < end) {
                const auto index = static_cast<std::uint32_t>(
                    begin / kBlockSize);
                const Bytes block_begin = begin % kBlockSize;
                const Bytes block_end = std::min<Bytes>(
                    kBlockSize, block_begin + (end - begin));
                const cache::BlockId id{op.file, index};
                if (!fs.dirty.contains(id))
                    fs.dirty.insert(id, op.time);
                fs.dirty.markDirty(id, block_begin, block_end, op.time);
                begin += block_end - block_begin;
            }
            break;
          }
          case ServerOp::Kind::Fsync: {
            ++fs.stats.fsyncs;
            const auto blocks = fs.dirty.dirtyBlocksOfFile(op.file);
            if (blocks.empty() && fs.log.pendingBytes() == 0)
                break; // nothing to make durable
            for (const cache::BlockId &id : blocks)
                stageBlock(fs, id, op.time);
            if (!buffered) {
                // Synchronous partial-segment write.
                if (fs.log.seal(lfs::SealCause::Fsync))
                    fs.pendingSince = kNoTime;
                break;
            }
            // Buffered: data is durable once in NVRAM.  Only write to
            // disk if the buffer cannot hold the open segment.
            const Bytes occupancy = fs.log.pendingBytes();
            if (occupancy > config_.nvramBufferBytes) {
                ++fs.stats.bufferOverflows;
                if (fs.log.seal(lfs::SealCause::Fsync)) {
                    fs.pendingSince = kNoTime;
                    reconcileNvram(fs);
                }
            } else {
                ++fs.stats.fsyncsAbsorbed;
            }
            break;
          }
        }
    }

    if ((stop && stop()) || crashed()) {
        // The machine is down: no drain, the durable state stays
        // exactly as the crash left it for recovery to examine.
        for (auto &fs : state_)
            fs->stats.log = fs->log.stats();
        return;
    }

    // Drain: flush everything left so totals are comparable.
    for (auto &fs : state_) {
        for (const cache::BlockId &id : fs->dirty.allDirtyBlocks())
            stageBlock(*fs, id, last);
        if (fs->log.seal(lfs::SealCause::Shutdown))
            reconcileNvram(*fs);
        fs->cleaner.maybeClean(fs->log);
        fs->stats.log = fs->log.stats();
    }
}

} // namespace nvfs::server
