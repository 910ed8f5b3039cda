// Byte-buffer reader/writer used by the wire serializer and the trace codec.
//
// Little-endian, bounds-checked, append-only writer and a sequential reader.
// Sizes produced here are the sizes charged to the simulated network link, so
// the encoding is deliberately simple and stable.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace aide {

class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }

  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    write_raw(bytes.data(), bytes.size());
  }

  void write_string(std::string_view s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    write_raw(s.data(), s.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  // Grow, then copy: fixed-size writes compile to a plain store.
  void write_raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const auto n = read_u32();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  // A view of the next `n` raw bytes; valid as long as the underlying buffer.
  std::span<const std::uint8_t> read_bytes(std::size_t n) {
    check(n);
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  template <typename T>
  T read_pod() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void check(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw std::out_of_range("ByteReader: truncated buffer");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace aide
