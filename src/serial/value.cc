#include "serial/value.h"

namespace mocha::serial {

namespace {
enum class Tag : std::uint8_t {
  kEmpty = 0,
  kBool = 1,
  kI32 = 2,
  kI64 = 3,
  kF64 = 4,
  kString = 5,
  kBytes = 6,
  kI32Array = 7,
  kF64Array = 8,
};
}  // namespace

void encode_value(util::WireWriter& out, const Value& value) {
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          out.u8(static_cast<std::uint8_t>(Tag::kEmpty));
        } else if constexpr (std::is_same_v<T, bool>) {
          out.u8(static_cast<std::uint8_t>(Tag::kBool));
          out.boolean(v);
        } else if constexpr (std::is_same_v<T, std::int32_t>) {
          out.u8(static_cast<std::uint8_t>(Tag::kI32));
          out.i32(v);
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          out.u8(static_cast<std::uint8_t>(Tag::kI64));
          out.i64(v);
        } else if constexpr (std::is_same_v<T, double>) {
          out.u8(static_cast<std::uint8_t>(Tag::kF64));
          out.f64(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          out.u8(static_cast<std::uint8_t>(Tag::kString));
          out.str(v);
        } else if constexpr (std::is_same_v<T, util::Buffer>) {
          out.u8(static_cast<std::uint8_t>(Tag::kBytes));
          out.bytes(v);
        } else if constexpr (std::is_same_v<T, std::vector<std::int32_t>>) {
          out.u8(static_cast<std::uint8_t>(Tag::kI32Array));
          out.u32(static_cast<std::uint32_t>(v.size()));
          for (std::int32_t x : v) out.i32(x);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          out.u8(static_cast<std::uint8_t>(Tag::kF64Array));
          out.u32(static_cast<std::uint32_t>(v.size()));
          for (double x : v) out.f64(x);
        }
      },
      value);
}

Value decode_value(util::WireReader& in) {
  auto tag = static_cast<Tag>(in.u8());
  switch (tag) {
    case Tag::kEmpty:
      return std::monostate{};
    case Tag::kBool:
      return in.boolean();
    case Tag::kI32:
      return in.i32();
    case Tag::kI64:
      return in.i64();
    case Tag::kF64:
      return in.f64();
    case Tag::kString:
      return in.str();
    case Tag::kBytes:
      return in.bytes();
    case Tag::kI32Array: {
      const std::uint32_t n = in.count(sizeof(std::int32_t));
      std::vector<std::int32_t> v;
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) v.push_back(in.i32());
      return v;
    }
    case Tag::kF64Array: {
      const std::uint32_t n = in.count(sizeof(double));
      std::vector<double> v;
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) v.push_back(in.f64());
      return v;
    }
  }
  throw util::CodecError("unknown value tag " +
                         std::to_string(static_cast<int>(tag)));
}

std::size_t value_wire_size(const Value& value) {
  return std::visit(
      [](const auto& v) -> std::size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return 1;
        } else if constexpr (std::is_same_v<T, bool>) {
          return 2;
        } else if constexpr (std::is_same_v<T, std::int32_t>) {
          return 5;
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          return 9;
        } else if constexpr (std::is_same_v<T, double>) {
          return 9;
        } else if constexpr (std::is_same_v<T, std::string>) {
          return 5 + v.size();
        } else if constexpr (std::is_same_v<T, util::Buffer>) {
          return 5 + v.size();
        } else if constexpr (std::is_same_v<T, std::vector<std::int32_t>>) {
          return 5 + 4 * v.size();
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          return 5 + 8 * v.size();
        }
      },
      value);
}

const char* value_type_name(const Value& value) {
  switch (value.index()) {
    case 0:
      return "empty";
    case 1:
      return "bool";
    case 2:
      return "int32";
    case 3:
      return "int64";
    case 4:
      return "double";
    case 5:
      return "string";
    case 6:
      return "bytes";
    case 7:
      return "int32[]";
    case 8:
      return "double[]";
    default:
      return "?";
  }
}

}  // namespace mocha::serial
