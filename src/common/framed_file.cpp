#include "common/framed_file.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/bitops.hpp"

namespace loom::common {

void FramedFormat::raise(const std::string& message) const {
  fail(message);
  std::abort();  // `fail` must throw; a format that returns is a bug
}

void ByteWriter::str(const std::string& s) {
  if (s.size() > fmt_->max_string) {
    fmt_->raise(std::string("string too long for ") + fmt_->noun + ": " +
                std::to_string(s.size()) + " bytes");
  }
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string ByteReader::str(const char* what) {
  const std::uint64_t n = u64(what);
  if (n > fmt_->max_string) {
    fmt_->raise(std::string(fmt_->noun) + " string length for " + what +
                " out of range: " + std::to_string(n));
  }
  need(static_cast<std::size_t>(n), what);
  std::string s(reinterpret_cast<const char*>(in_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void ByteReader::truncated(std::size_t n, const char* what) const {
  fmt_->raise(std::string(fmt_->noun) + " truncated reading " + what +
              ": need " + std::to_string(n) + " bytes, have " +
              std::to_string(remaining()));
}

std::vector<std::uint8_t> encode_framed(
    const FramedFormat& fmt,
    const std::function<void(std::uint32_t id, ByteWriter& payload)>& write) {
  ByteWriter w(fmt);
  w.bytes(fmt.magic, sizeof fmt.magic);
  w.u32(fmt.version);
  w.u32(static_cast<std::uint32_t>(fmt.sections.size()));
  for (const std::uint32_t id : fmt.sections) {
    ByteWriter payload(fmt);
    write(id, payload);
    w.u32(id);
    w.u64(payload.out().size());
    w.u64(fnv1a64(payload.out()));
    w.bytes(payload.out().data(), payload.out().size());
  }
  return std::move(w.out());
}

void decode_framed(
    const FramedFormat& fmt, std::span<const std::uint8_t> bytes,
    const std::function<void(std::uint32_t id, ByteReader& payload)>& read) {
  const std::string noun = fmt.noun;
  ByteReader r(fmt, bytes);
  if (std::memcmp(r.take(sizeof fmt.magic, "magic").data(), fmt.magic,
                  sizeof fmt.magic) != 0) {
    fmt.raise(noun + " magic mismatch: not a " +
              std::string(fmt.magic, sizeof fmt.magic) + " file");
  }
  const std::uint32_t version = r.u32("version");
  if (version != fmt.version) {
    fmt.raise(noun + " version skew: file has version " +
              std::to_string(version) + ", this build reads " +
              std::to_string(fmt.version));
  }
  const std::uint32_t sections = r.u32("section count");
  if (sections != fmt.sections.size()) {
    fmt.raise(noun + " section count mismatch: " + std::to_string(sections) +
              " != " + std::to_string(fmt.sections.size()));
  }

  for (const std::uint32_t expected : fmt.sections) {
    const std::uint32_t id = r.u32("section id");
    if (id != expected) {
      fmt.raise(noun + " section order violation: got id " +
                std::to_string(id) + ", expected " + std::to_string(expected));
    }
    const std::uint64_t length = r.u64("section length");
    const std::uint64_t checksum = r.u64("section checksum");
    // Checked AFTER the checksum field is consumed, so remaining() is what
    // the payload itself has left; reported as an overrun, not truncation.
    if (length > r.remaining()) {
      fmt.raise(noun + " section " + std::to_string(id) + " length " +
                std::to_string(length) + " overruns the file (" +
                std::to_string(r.remaining()) + " bytes left)");
    }
    const std::span<const std::uint8_t> payload =
        r.take(static_cast<std::size_t>(length), "section payload");
    if (fnv1a64(payload) != checksum) {
      fmt.raise(noun + " section " + std::to_string(id) +
                " checksum mismatch (corrupted payload)");
    }
    ByteReader section(fmt, payload);
    read(id, section);
    if (section.pos() != payload.size()) {
      fmt.raise(noun + " section " + std::to_string(id) + " has " +
                std::to_string(payload.size() - section.pos()) +
                " trailing bytes");
    }
  }
  if (r.remaining() != 0) {
    fmt.raise(noun + " has " + std::to_string(r.remaining()) +
              " trailing bytes after the last section");
  }
}

void save_framed_file(const FramedFormat& fmt,
                      std::span<const std::uint8_t> bytes,
                      const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fmt.raise("cannot open '" + tmp + "' for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    fmt.raise(std::string("short write saving ") + fmt.noun + " to '" + tmp +
              "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fmt.raise("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_framed_file(const FramedFormat& fmt,
                                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fmt.raise(std::string("cannot open ") + fmt.noun + " '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof buf) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    fmt.raise(std::string("short read loading ") + fmt.noun + " '" + path +
              "'");
  }
  return bytes;
}

}  // namespace loom::common
