#include "net/pcap.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace dosm::net {

namespace {

/// Frames both ingest front ends dropped, by reason. Registered lazily on
/// the global registry; src/ingest/metrics.cpp resolves the same names, so
/// the sequential and batched paths share one set of counters.
struct SkipCounters {
  obs::Counter& link;
  obs::Counter& truncated;
  obs::Counter& undecodable;

  static SkipCounters& get() {
    static SkipCounters counters = [] {
      auto& reg = obs::MetricsRegistry::global();
      return SkipCounters{
          reg.counter("ingest.skipped.link",
                      "Frames dropped at the link layer (short frame or "
                      "non-IPv4 EtherType)"),
          reg.counter("ingest.skipped.truncated",
                      "Frames dropped because the IPv4 total_length exceeds "
                      "the captured bytes (snaplen truncation)"),
          reg.counter("ingest.skipped.undecodable",
                      "Frames dropped because the payload is not parseable "
                      "IPv4"),
      };
    }();
    return counters;
  }
};

void write_u16le(std::ostream& out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b, 2);
}

void write_u32le(std::ostream& out, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
                     static_cast<char>((v >> 16) & 0xff),
                     static_cast<char>((v >> 24) & 0xff)};
  out.write(b, 4);
}

std::uint32_t swap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

std::uint16_t swap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

bool read_exact(std::istream& in, void* dst, std::size_t n) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t link_type,
                       std::uint32_t snaplen)
    : out_(out), link_type_(link_type), snaplen_(snaplen) {
  if (!out_) throw std::runtime_error("PcapWriter: bad output stream");
  write_u32le(out_, kPcapMagic);
  write_u16le(out_, 2);  // version major
  write_u16le(out_, 4);  // version minor
  write_u32le(out_, 0);  // thiszone
  write_u32le(out_, 0);  // sigfigs
  write_u32le(out_, snaplen_);
  write_u32le(out_, link_type_);
}

void PcapWriter::write_frame(UnixSeconds ts_sec, std::uint32_t ts_usec,
                             std::span<const std::uint8_t> bytes) {
  const auto captured =
      static_cast<std::uint32_t>(std::min<std::size_t>(bytes.size(), snaplen_));
  write_u32le(out_, static_cast<std::uint32_t>(ts_sec));
  write_u32le(out_, ts_usec);
  write_u32le(out_, captured);
  write_u32le(out_, static_cast<std::uint32_t>(bytes.size()));
  out_.write(reinterpret_cast<const char*>(bytes.data()), captured);
  if (!out_) throw std::runtime_error("PcapWriter: write failed");
  ++frames_written_;
}

void PcapWriter::write_packet(const PacketRecord& rec) {
  if (link_type_ != kLinkTypeRaw)
    throw std::logic_error("PcapWriter::write_packet requires LINKTYPE_RAW");
  const auto bytes = encode_packet(rec);
  write_frame(rec.ts_sec, rec.ts_usec, bytes);
}

PcapReader::PcapReader(std::istream& in) : in_(in) {
  std::uint32_t magic = 0;
  if (!read_exact(in_, &magic, 4))
    throw std::runtime_error("PcapReader: missing global header");
  if (magic == kPcapMagic) {
    swapped_ = false;
  } else if (swap32(magic) == kPcapMagic) {
    swapped_ = true;
  } else {
    throw std::runtime_error("PcapReader: bad magic");
  }
  std::uint8_t rest[20];
  if (!read_exact(in_, rest, sizeof(rest)))
    throw std::runtime_error("PcapReader: truncated global header");
  std::uint32_t lt;
  std::memcpy(&lt, rest + 16, 4);
  link_type_ = swapped_ ? swap32(lt) : lt;
  std::uint16_t vmaj;
  std::memcpy(&vmaj, rest + 0, 2);
  vmaj = swapped_ ? swap16(vmaj) : vmaj;
  if (vmaj != 2) throw std::runtime_error("PcapReader: unsupported version");
}

std::optional<CapturedFrame> PcapReader::next_frame() {
  std::uint32_t hdr[4];
  if (!read_exact(in_, hdr, sizeof(hdr))) {
    // A zero-byte short read is a clean EOF only when the stream actually
    // reached end-of-file. A failed stream (badbit from the underlying
    // source, or failbit without eofbit) also reports gcount() == 0; treating
    // that as EOF would silently truncate the trace on an I/O error.
    if (in_.bad() || !in_.eof())
      throw std::runtime_error("PcapReader: stream read error mid-capture");
    if (in_.gcount() == 0) return std::nullopt;  // clean EOF
    throw std::runtime_error("PcapReader: truncated record header");
  }
  if (swapped_)
    for (auto& w : hdr) w = swap32(w);
  CapturedFrame frame;
  frame.ts_sec = hdr[0];
  frame.ts_usec = hdr[1];
  const std::uint32_t caplen = hdr[2];
  frame.orig_len = hdr[3];
  if (caplen > 1u << 26)
    throw std::runtime_error("PcapReader: implausible record length");
  frame.bytes.resize(caplen);
  if (!read_exact(in_, frame.bytes.data(), caplen)) {
    if (in_.bad() || !in_.eof())
      throw std::runtime_error("PcapReader: stream read error mid-capture");
    throw std::runtime_error("PcapReader: truncated record body");
  }
  return frame;
}

std::optional<PacketRecord> PcapReader::next_packet() {
  auto& skips = SkipCounters::get();
  for (;;) {
    auto frame = next_frame();
    if (!frame) return std::nullopt;
    PacketRecord rec;
    switch (decode_frame(frame->bytes, link_type_, frame->ts_sec,
                         frame->ts_usec, rec)) {
      case FrameDecode::kOk: return rec;
      case FrameDecode::kSkipLink: skips.link.inc(); break;
      case FrameDecode::kSkipTruncated: skips.truncated.inc(); break;
      case FrameDecode::kSkipUndecodable: skips.undecodable.inc(); break;
    }
  }
}

std::vector<PacketRecord> decode_pcap(std::span<const std::uint8_t> file_bytes) {
  std::string buffer(reinterpret_cast<const char*>(file_bytes.data()),
                     file_bytes.size());
  std::istringstream in(buffer, std::ios::binary);
  PcapReader reader(in);
  std::vector<PacketRecord> out;
  while (auto rec = reader.next_packet()) out.push_back(*rec);
  return out;
}

}  // namespace dosm::net
