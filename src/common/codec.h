// Binary wire codec.
//
// Fixed-width little-endian encoding used by the protocol messages in
// src/proto/. The same bytes travel through the simulated network and over
// real UDP sockets, so every message in the system is genuinely serialized.
//
// Reader performs bounds-checked decoding and latches an error instead of
// crashing on truncated or malformed input; callers check ok() once at the
// end (the pattern recommended for parsing untrusted datagrams).
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace leases {

class Writer {
 public:
  Writer() : out_(&buf_) {}
  // Appends into an external buffer instead of an owned one. The caller
  // keeps ownership; reusing one buffer across encodes makes the hot wire
  // path allocation-free once its capacity has grown to the working set.
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(v); }
  void WriteU16(uint16_t v) { AppendLe(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendLe(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendLe(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteDuration(Duration d) { WriteI64(d.ToMicros()); }

  template <typename Tag, typename Rep>
  void WriteId(StrongId<Tag, Rep> id) {
    WriteU64(static_cast<uint64_t>(id.value()));
  }

  void WriteBytes(std::span<const uint8_t> bytes) {
    WriteU32(static_cast<uint32_t>(bytes.size()));
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void WriteString(std::string_view s) {
    WriteBytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }

  const std::vector<uint8_t>& buffer() const { return *out_; }
  std::vector<uint8_t> Take() { return std::move(*out_); }

 private:
  void AppendLe(const void* p, size_t n) {
    // Host is little-endian on all supported platforms; memcpy is the
    // portable way to avoid aliasing issues.
    const auto* b = static_cast<const uint8_t*>(p);
    out_->insert(out_->end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t ReadU8() { return ReadLe<uint8_t>(); }
  uint16_t ReadU16() { return ReadLe<uint16_t>(); }
  uint32_t ReadU32() { return ReadLe<uint32_t>(); }
  uint64_t ReadU64() { return ReadLe<uint64_t>(); }
  int64_t ReadI64() { return ReadLe<int64_t>(); }
  double ReadDouble() { return ReadLe<double>(); }
  bool ReadBool() { return ReadU8() != 0; }

  Duration ReadDuration() { return Duration::Micros(ReadI64()); }

  template <typename Id>
  Id ReadId() {
    return Id(static_cast<typename Id::rep_type>(ReadU64()));
  }

  // Length-prefixed bytes as a view into the input; empty on a short read.
  std::span<const uint8_t> ReadByteView() {
    uint32_t n = ReadU32();
    if (n > Remaining()) {
      ok_ = false;
      return {};
    }
    std::span<const uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::vector<uint8_t> ReadBytes() {
    std::span<const uint8_t> bytes = ReadByteView();
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
  }
  std::string ReadString() {
    std::vector<uint8_t> b = ReadBytes();
    return std::string(b.begin(), b.end());
  }

  size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  // False if any read ran past the end of the buffer.
  bool ok() const { return ok_; }

 private:
  template <typename T>
  T ReadLe() {
    if (Remaining() < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace leases

#endif  // SRC_COMMON_CODEC_H_
