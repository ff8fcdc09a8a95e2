#include "query/event_frame.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace dosm::query {

PackedCountry pack_country(meta::CountryCode country) {
  const auto s = country.to_string();
  return static_cast<PackedCountry>(
      (static_cast<unsigned char>(s[0]) << 8) |
      static_cast<unsigned char>(s[1]));
}

meta::CountryCode unpack_country(PackedCountry packed) {
  const char chars[2] = {static_cast<char>(packed >> 8),
                         static_cast<char>(packed & 0xff)};
  return meta::CountryCode(std::string_view(chars, 2));
}

EventFrame EventFrame::from_columns(StudyWindow window, FrameColumns columns) {
  const std::size_t n = columns.start.size();
  if (columns.end.size() != n || columns.intensity.size() != n ||
      columns.target.size() != n || columns.source.size() != n ||
      columns.ip_proto.size() != n || columns.top_port.size() != n ||
      columns.asn.size() != n || columns.country.size() != n ||
      columns.day.size() != n)
    throw std::invalid_argument("EventFrame: column lengths disagree");
  if (!std::is_sorted(columns.start.begin(), columns.start.end()))
    throw std::invalid_argument("EventFrame: start column is not sorted");
  EventFrame frame;
  frame.window_ = window;
  frame.start_ = std::move(columns.start);
  frame.end_ = std::move(columns.end);
  frame.intensity_ = std::move(columns.intensity);
  frame.target_ = std::move(columns.target);
  frame.source_ = std::move(columns.source);
  frame.ip_proto_ = std::move(columns.ip_proto);
  frame.top_port_ = std::move(columns.top_port);
  frame.asn_ = std::move(columns.asn);
  frame.country_ = std::move(columns.country);
  frame.day_ = std::move(columns.day);
  return frame;
}

FrameBuilder::FrameBuilder(StudyWindow window,
                           const meta::PrefixToAsMap& pfx2as,
                           const meta::GeoDatabase& geo)
    : window_(window), pfx2as_(&pfx2as), geo_(&geo) {}

void FrameBuilder::add(const core::AttackEvent& event) {
  Row row;
  row.start = event.start;
  row.end = event.end;
  row.intensity = event.intensity;
  row.target = event.target.value();
  row.source = static_cast<std::uint8_t>(event.source);
  row.ip_proto = event.ip_proto;
  row.top_port = event.top_port;
  row.asn = pfx2as_->origin(event.target);
  row.country = pack_country(geo_->locate(event.target));
  const auto t = static_cast<UnixSeconds>(event.start);
  row.day = window_.contains(t) ? window_.day_of(t) : -1;
  rows_.push_back(row);
}

void FrameBuilder::add(std::span<const core::AttackEvent> events) {
  rows_.reserve(rows_.size() + events.size());
  for (const auto& event : events) add(event);
}

EventFrame FrameBuilder::build() const {
  // Total order: the trailing row index breaks (start, target, source) ties
  // (e.g. a telescope and honeypot event fusing to the same key fields), so
  // the permutation is unique.
  const std::size_t n = rows_.size();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Row& ra = rows_[a];
    const Row& rb = rows_[b];
    return std::tie(ra.start, ra.target, ra.source, a) <
           std::tie(rb.start, rb.target, rb.source, b);
  });

  EventFrame frame;
  frame.window_ = window_;
  frame.start_.resize(n);
  frame.end_.resize(n);
  frame.intensity_.resize(n);
  frame.target_.resize(n);
  frame.source_.resize(n);
  frame.ip_proto_.resize(n);
  frame.top_port_.resize(n);
  frame.asn_.resize(n);
  frame.country_.resize(n);
  frame.day_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = rows_[order[i]];
    frame.start_[i] = row.start;
    frame.end_[i] = row.end;
    frame.intensity_[i] = row.intensity;
    frame.target_[i] = row.target;
    frame.source_[i] = row.source;
    frame.ip_proto_[i] = row.ip_proto;
    frame.top_port_[i] = row.top_port;
    frame.asn_[i] = row.asn;
    frame.country_[i] = row.country;
    frame.day_[i] = row.day;
  }
  return frame;
}

}  // namespace dosm::query
