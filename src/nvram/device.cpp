#include "nvram/device.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace nvfs::nvram {

NvramDevice::NvramDevice(const DeviceParams &params)
    : params_(params), goodBatteries_(params.batteries)
{
    NVFS_REQUIRE(params_.capacity > 0, "NVRAM needs capacity");
}

CrashAction
NvramDevice::crashAt(CrashSiteKind kind, std::uint64_t detail)
{
    return crashHook_ == nullptr
               ? CrashAction::None
               : crashHook_->onSite(kind, detail, this);
}

bool
NvramDevice::put(std::uint64_t tag, Bytes bytes)
{
    switch (crashAt(CrashSiteKind::DevicePut, tag)) {
      case CrashAction::Drop:
        // Power failed mid-write: the access was issued (count it)
        // but the cell never committed; the old value for the tag
        // survives.
        ++writes_;
        return false;
      case CrashAction::Dead:
        // The host is already down — the put is never issued.
        return false;
      default:
        break;
    }
    auto it = contents_.find(tag);
    const Bytes old = it == contents_.end() ? 0 : it->second;
    if (used_ - old + bytes > params_.capacity)
        return false;
    used_ = used_ - old + bytes;
    contents_[tag] = bytes;
    ++writes_;
    return true;
}

std::optional<Bytes>
NvramDevice::get(std::uint64_t tag)
{
    ++reads_;
    auto it = contents_.find(tag);
    if (it == contents_.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::uint64_t>
NvramDevice::tags() const
{
    std::vector<std::uint64_t> out;
    out.reserve(contents_.size());
    for (const auto &[tag, bytes] : contents_)
        out.push_back(tag);
    std::sort(out.begin(), out.end());
    return out;
}

Bytes
NvramDevice::erase(std::uint64_t tag)
{
    auto it = contents_.find(tag);
    if (it == contents_.end())
        return 0;
    const Bytes bytes = it->second;
    used_ -= bytes;
    contents_.erase(it);
    return bytes;
}

void
NvramDevice::clear()
{
    contents_.clear();
    used_ = 0;
}

void
NvramDevice::detach()
{
    attached_ = false;
    if (goodBatteries_ <= 0) {
        contents_.clear();
        used_ = 0;
        contentsValid_ = false;
    }
}

void
NvramDevice::attach()
{
    attached_ = true;
}

void
NvramDevice::failBattery()
{
    if (goodBatteries_ > 0)
        --goodBatteries_;
    if (goodBatteries_ <= 0 && !attached_) {
        contents_.clear();
        used_ = 0;
        contentsValid_ = false;
    }
}

} // namespace nvfs::nvram
