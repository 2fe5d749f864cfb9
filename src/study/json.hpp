// A minimal, deterministic JSON document builder for StudyReport
// serialization.  Objects preserve insertion order (no hashing, no
// locale), numbers serialize via std::to_chars (shortest round-trip for
// doubles), so the same report dumps to the same bytes on every run and
// at every titan::par width.  This is a writer with just enough read
// support for tests; it is not a general-purpose JSON parser.
#pragma once

#include <cstdint>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace titan::study {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered members: serialization order == build order.
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() noexcept : value_{nullptr} {}
  JsonValue(std::nullptr_t) noexcept : value_{nullptr} {}  // NOLINT(google-explicit-constructor)
  JsonValue(bool b) noexcept : value_{b} {}                // NOLINT(google-explicit-constructor)
  JsonValue(const char* s) : value_{std::string{s}} {}     // NOLINT(google-explicit-constructor)
  JsonValue(std::string_view s) : value_{std::string{s}} {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::string s) noexcept : value_{std::move(s)} {}  // NOLINT(google-explicit-constructor)

  template <std::floating_point T>
  JsonValue(T v) noexcept : value_{static_cast<double>(v)} {}  // NOLINT(google-explicit-constructor)

  // Initialized in place, never default-constructed then assigned: the
  // assignment form trips GCC 12's -Wmaybe-uninitialized false positive
  // on the variant's string/vector storage under -fsanitize=address.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonValue(T v) noexcept : value_{widen(v)} {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.value_ = Object{};
    return v;
  }
  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.value_ = Array{};
    return v;
  }

  /// Append a member to an object (throws std::logic_error otherwise).
  /// Returns *this for chaining.  Keys are not deduplicated: callers own
  /// uniqueness, which keeps set() O(1).
  JsonValue& set(std::string key, JsonValue value);

  /// Append an element to an array (throws std::logic_error otherwise).
  JsonValue& push(JsonValue value);

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }

  /// First member with `key`, or nullptr (objects only; nullptr otherwise).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// find() that throws std::out_of_range on a missing key.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  [[nodiscard]] const Object& members() const { return std::get<Object>(value_); }
  [[nodiscard]] const Array& elements() const { return std::get<Array>(value_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_double() const;  ///< any numeric alternative, widened
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  [[nodiscard]] std::uint64_t as_uint() const { return std::get<std::uint64_t>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }

  /// Serialize (compact, no whitespace) appending to `out`.  Non-finite
  /// doubles serialize as null (JSON has no inf/nan).
  void write(std::string& out) const;
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const JsonValue& a, const JsonValue& b) = default;

 private:
  /// Signed integers widen to int64, unsigned ones to uint64.
  template <std::integral T>
  [[nodiscard]] static constexpr auto widen(T v) noexcept {
    if constexpr (std::signed_integral<T>) {
      return static_cast<std::int64_t>(v);
    } else {
      return static_cast<std::uint64_t>(v);
    }
  }

  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace titan::study
