#include "prism/proc_interface.h"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace prism::prism {

namespace {

constexpr std::string_view kPriorityPath = "prism/priority";
constexpr std::string_view kModePath = "prism/mode";
constexpr std::string_view kIndexPath = "prism/telemetry/index";

/// Parses all of `text` as a decimal int; false on any leftover character.
bool parse_int(const std::string& text, int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

ProcInterface::ProcInterface(PriorityDb& db,
                             std::function<void(kernel::NapiMode)> set_mode,
                             std::function<kernel::NapiMode()> get_mode)
    : db_(db), set_mode_(std::move(set_mode)),
      get_mode_(std::move(get_mode)) {}

bool ProcInterface::write(std::string_view path, std::string_view value) {
  if (path == kModePath) {
    if (value == "vanilla") {
      set_mode_(kernel::NapiMode::kVanilla);
    } else if (value == "batch") {
      set_mode_(kernel::NapiMode::kPrismBatch);
    } else if (value == "sync") {
      set_mode_(kernel::NapiMode::kPrismSync);
    } else if (value == "queues") {
      set_mode_(kernel::NapiMode::kPrismQueues);
    } else {
      return false;
    }
    return true;
  }
  if (path == kPriorityPath) {
    // Accepted: "clear", "add <ip> <port> [level]", "del <ip> <port>".
    // Every token must parse in full; anything extra rejects the write.
    std::istringstream in{std::string(value)};
    std::vector<std::string> tok;
    for (std::string t; in >> t;) tok.push_back(std::move(t));
    if (tok.size() == 1 && tok[0] == "clear") {
      db_.clear();
      return true;
    }
    const bool add = !tok.empty() && tok[0] == "add" &&
                     (tok.size() == 3 || tok.size() == 4);
    const bool del = tok.size() == 3 && tok[0] == "del";
    if (!add && !del) return false;
    int port = -1;
    if (!parse_int(tok[2], port) || port < 0 || port > 0xffff) return false;
    net::Ipv4Addr ip;
    try {
      ip = net::Ipv4Addr::parse(tok[1]);
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (del) return db_.remove(ip, static_cast<std::uint16_t>(port));
    int level = 1;  // optional trailing level; default matches paper
    if (tok.size() == 4 && !parse_int(tok[3], level)) return false;
    if (level < 1 || level >= kernel::kNumPriorityLevels) return false;
    db_.add(ip, static_cast<std::uint16_t>(port), level);
    return true;
  }
  return false;
}

std::string ProcInterface::read(std::string_view path) const {
  if (path == kModePath) {
    switch (get_mode_()) {
      case kernel::NapiMode::kVanilla:
        return "vanilla";
      case kernel::NapiMode::kPrismBatch:
        return "batch";
      case kernel::NapiMode::kPrismSync:
        return "sync";
      case kernel::NapiMode::kPrismQueues:
        return "queues";
    }
    return "";
  }
  if (path == kPriorityPath) {
    return std::to_string(db_.size());
  }
  if (path == kIndexPath) {
    // Built-in (not registered) so a registered reader can never shadow
    // or omit it; computed per read so late register_file calls show up.
    std::string out;
    for (const std::string& p : paths()) {
      out += p;
      out += '\n';
    }
    return out;
  }
  if (const auto it = files_.find(path); it != files_.end()) {
    return it->second();
  }
  return "";
}

void ProcInterface::register_file(std::string path,
                                  std::function<std::string()> reader) {
  files_[std::move(path)] = std::move(reader);
}

std::vector<std::string> ProcInterface::paths() const {
  std::vector<std::string> out{std::string(kModePath),
                               std::string(kPriorityPath),
                               std::string(kIndexPath)};
  for (const auto& [path, reader] : files_) out.push_back(path);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace prism::prism
