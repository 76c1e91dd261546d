#include "trace/poll_trace.h"

#include <cstdio>

namespace prism::trace {

void PollTrace::on_poll_ids(sim::Time at, NameId device,
                            const NameId* poll_list,
                            std::size_t poll_list_len, int packets) {
  CompactRecord rec;
  rec.iteration = ring_.pushed() + 1;
  rec.at = at;
  rec.packets = packets;
  rec.device = device;
  if (poll_list_len > kMaxPollList) {
    ++truncated_;
    poll_list_len = kMaxPollList;
  }
  rec.list_len = static_cast<std::uint8_t>(poll_list_len);
  for (std::size_t i = 0; i < poll_list_len; ++i) rec.list[i] = poll_list[i];
  ring_.push(rec);
}

void PollTrace::on_poll(sim::Time at, const std::string& device,
                        std::vector<std::string> poll_list, int packets) {
  std::array<NameId, kMaxPollList> ids{};
  const std::size_t n = poll_list.size();
  for (std::size_t i = 0; i < n && i < kMaxPollList; ++i) {
    ids[i] = intern(poll_list[i]);
  }
  on_poll_ids(at, intern(device), ids.data(), n, packets);
}

std::vector<PollRecord> PollTrace::records() const {
  std::vector<PollRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const CompactRecord& c = ring_.at(i);
    PollRecord r;
    r.iteration = c.iteration;
    r.at = c.at;
    r.packets = c.packets;
    r.device = names_.name(c.device);
    r.poll_list.reserve(c.list_len);
    for (std::size_t j = 0; j < c.list_len; ++j) {
      r.poll_list.push_back(names_.name(c.list[j]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::string> PollTrace::device_order() const {
  std::vector<std::string> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(names_.name(ring_.at(i).device));
  }
  return out;
}

std::string PollTrace::render(std::size_t max_rows) const {
  std::string out = "Iter.  Device  Poll list\n";
  char buf[32];
  for (std::size_t i = 0; i < ring_.size() && i < max_rows; ++i) {
    const CompactRecord& r = ring_.at(i);
    std::snprintf(buf, sizeof(buf), "%-5llu  %-6s  [",
                  static_cast<unsigned long long>(r.iteration),
                  names_.name(r.device).c_str());
    out += buf;
    for (std::size_t j = 0; j < r.list_len; ++j) {
      if (j != 0) out += ", ";
      out += names_.name(r.list[j]);
    }
    out += "]\n";
  }
  return out;
}

}  // namespace prism::trace
