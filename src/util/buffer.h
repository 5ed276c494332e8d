// Byte buffer and bounds-checked wire codec used by every Mocha wire format.
//
// All multi-byte integers are encoded little-endian and fixed-width so the
// format is trivially portable across the heterogeneous hosts the paper
// targets (the Java original relied on the JVM for this).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mocha::util {

using Buffer = std::vector<std::uint8_t>;

// Thrown when a reader runs off the end of a buffer or a length prefix is
// inconsistent. Indicates a corrupt or truncated message.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

// Appends fixed-width little-endian values to a Buffer.
class WireWriter {
 public:
  explicit WireWriter(Buffer& out) : out_(out) {}

  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    // MOCHA_RAW_WIRE_OK: bit-cast of a local double, not wire bytes.
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  // Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    out_.insert(out_.end(), data.begin(), data.end());
  }

  // Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  // Raw bytes, no length prefix (caller must know the length on read).
  void raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return out_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Buffer& out_;
};

// Reads fixed-width little-endian values from a byte span, bounds-checked.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }

  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();  // bounds-checked read
    double v;
    // MOCHA_RAW_WIRE_OK: bit-cast of the already-validated u64.
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() { return u8() != 0; }

  Buffer bytes() {
    std::uint32_t n = u32();
    need(n);
    Buffer out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
               in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    // MOCHA_RAW_WIRE_OK: WireReader internal; need(n) bounds-checked above.
    std::string out(reinterpret_cast<const char*>(in_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  // View of `n` raw bytes (valid only while the underlying buffer lives).
  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto out = in_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  // Reads the u32 element count of a list whose elements take `elem_bytes`
  // each on the wire. Throws when the rest of the input cannot hold that
  // many, so a forged count never sizes an allocation.
  std::uint32_t count(std::size_t elem_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / elem_bytes) {
      throw CodecError("wire count " + std::to_string(n) + " past end");
    }
    return n;
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return pos_ == in_.size(); }

 private:
  void need(std::size_t n) const {
    if (in_.size() - pos_ < n) {
      throw CodecError("wire read past end of buffer (" + std::to_string(n) +
                       " wanted, " + std::to_string(in_.size() - pos_) +
                       " left)");
    }
  }

  template <typename T>
  T read_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace mocha::util
