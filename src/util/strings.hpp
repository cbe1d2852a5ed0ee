// Small string/formatting helpers shared by the report renderers.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace streamlab {

/// printf-style double with fixed decimals ("12.34").
std::string fmt_double(double v, int decimals = 2);
/// Pads/truncates to a fixed width, left-aligned.
std::string pad_right(std::string_view s, std::size_t width);
/// Pads to a fixed width, right-aligned.
std::string pad_left(std::string_view s, std::size_t width);
/// Splits on a delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);
/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);
/// Case-sensitive prefix test.
bool starts_with(std::string_view s, std::string_view prefix);
/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);
/// All of `text` as a number in T's range: no sign on an unsigned T, no
/// leading or trailing bytes, no overflow. Base 16 takes bare hex digits.
template <typename T>
std::optional<T> parse_number(std::string_view text, int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value, base);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}
/// Renders a horizontal ASCII bar of proportional length (for bench output).
std::string ascii_bar(double fraction, std::size_t width = 40);

}  // namespace streamlab
