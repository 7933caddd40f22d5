#include "crash/registry.hpp"

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace nvfs::crash {

void
CrashSiteRegistry::track(const lfs::LfsLog &log,
                         const nvram::NvramDevice *device)
{
    TrackedFs fs;
    fs.log = &log;
    fs.device = device;
    tracked_.push_back(std::move(fs));
}

const lfs::InodeMap &
CrashSiteRegistry::TrackedFs::durableInodes() const
{
    if (!frozen_)
        durable_ = buildDurable();
    return durable_;
}

lfs::InodeMap
CrashSiteRegistry::TrackedFs::buildDurable() const
{
    lfs::InodeMap durable = log->inodes();
    for (const auto &[file, blocks] : committed_) {
        durable.removeFile(file);
        for (const auto &[block, address] : blocks)
            durable.update(file, block, address);
    }
    return durable;
}

void
CrashSiteRegistry::captureAtCrash()
{
    for (TrackedFs &fs : tracked_) {
        fs.durable_ = fs.buildDurable();
        fs.frozen_ = true;
        fs.pendingAtCrash = fs.log->pendingBlocks();
        if (fs.device != nullptr)
            fs.stagedAtCrash = fs.device->tags();
    }
}

CrashSiteRegistry::TrackedFs &
CrashSiteRegistry::trackedLog(const void *origin)
{
    for (TrackedFs &fs : tracked_) {
        if (fs.log == origin)
            return fs;
    }
    util::panic("crash site from an untracked log — call "
                "CrashSiteRegistry::track() for every instrumented "
                "log");
}

nvram::CrashAction
CrashSiteRegistry::onSite(nvram::CrashSiteKind kind,
                          std::uint64_t detail, const void *origin)
{
    static const obs::Counter seen("crash.sites_seen");

    if (dead_)
        return nvram::CrashAction::Dead;

    ++sites_;
    ++byKind_[static_cast<std::size_t>(kind)];
    seen.add();

    if (armedSite_ != 0 && sites_ == armedSite_) {
        const nvram::CrashAction action = nvram::crashModeOf(kind);
        crash_ = CrashInfo{sites_, kind, action, detail};
        dead_ = true;
        // Freeze the oracle's view before the instrumented component
        // acts on the returned action (a power-failing seal is about
        // to clear the very pending set we need).
        captureAtCrash();
        return action;
    }

    switch (kind) {
    case nvram::CrashSiteKind::InodeUpdate:
    case nvram::CrashSiteKind::JournalAppend: {
        // The log may change this file's blocks right after this
        // site: save them the first time the file is named since the
        // last commit, while they are still the committed ones.
        TrackedFs &fs = trackedLog(origin);
        const auto file = static_cast<FileId>(detail);
        const auto [it, fresh] = fs.committed_.try_emplace(file);
        if (fresh)
            it->second = fs.log->inodes().blocksOf(file);
        break;
    }
    case nvram::CrashSiteKind::SealCommit:
        // A seal just committed: its log's live inode map is now the
        // durable state roll-forward must reproduce.
        trackedLog(origin).committed_.clear();
        break;
    default:
        break;
    }
    return nvram::CrashAction::None;
}

} // namespace nvfs::crash
