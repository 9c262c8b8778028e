#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::NewlineIndent(size_t depth) {
  if (indent_ == 0) {
    return;
  }
  out_.push_back('\n');
  out_.append(depth * indent_, ' ');
}

void JsonWriter::BeforeValue() {
  WRL_CHECK_MSG(!(started_ && stack_.empty()), "value after the document was closed");
  if (stack_.empty()) {
    started_ = true;
    return;
  }
  if (stack_.back() == Frame::kObject) {
    WRL_CHECK_MSG(key_pending_, "object member emitted without a Key()");
    key_pending_ = false;
    return;  // Key() already handled the comma and indentation.
  }
  if (has_members_.back()) {
    out_.push_back(',');
  }
  has_members_.back() = true;
  NewlineIndent(stack_.size());
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  WRL_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                "Key() outside an object");
  WRL_CHECK_MSG(!key_pending_, "two Key() calls in a row");
  if (has_members_.back()) {
    out_.push_back(',');
  }
  has_members_.back() = true;
  NewlineIndent(stack_.size());
  AppendEscaped(key);
  out_.append(indent_ == 0 ? ":" : ": ");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  stack_.push_back(Frame::kObject);
  has_members_.push_back(false);
  out_.push_back('{');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  WRL_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject && !key_pending_,
                "unbalanced EndObject()");
  bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) {
    NewlineIndent(stack_.size());
  }
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  stack_.push_back(Frame::kArray);
  has_members_.push_back(false);
  out_.push_back('[');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  WRL_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kArray, "unbalanced EndArray()");
  bool had = has_members_.back();
  stack_.pop_back();
  has_members_.pop_back();
  if (had) {
    NewlineIndent(stack_.size());
  }
  out_.push_back(']');
  return *this;
}

void JsonWriter::AppendEscaped(std::string_view text) {
  out_.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\r':
        out_.append("\\r");
        break;
      case '\t':
        out_.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_.append(StrFormat("\\u%04x", static_cast<unsigned>(c)));
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  AppendEscaped(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    // JSON has no infinity/NaN; report them as strings so the degenerate
    // cases stay visible instead of corrupting the document.
    AppendEscaped(std::isnan(value) ? "nan" : (value > 0 ? "inf" : "-inf"));
    return *this;
  }
  std::string rendered = StrFormat("%.17g", value);
  // Round-trippable but readable: prefer the shortest representation that
  // parses back exactly.
  for (int precision = 1; precision < 17; ++precision) {
    std::string candidate = StrFormat("%.*g", precision, value);
    if (std::strtod(candidate.c_str(), nullptr) == value) {
      rendered = candidate;
      break;
    }
  }
  out_.append(rendered);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  BeforeValue();
  out_.append(StrFormat("%lld", static_cast<long long>(value)));
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  BeforeValue();
  out_.append(StrFormat("%llu", static_cast<unsigned long long>(value)));
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

std::string JsonWriter::TakeString() {
  WRL_CHECK_MSG(Done(), "TakeString() on an unfinished document");
  if (indent_ != 0) {
    out_.push_back('\n');
  }
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// JsonValue / ParseJson
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::At(std::string_view key) const {
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    throw Error(StrFormat("json: missing object member '%.*s'",
                          static_cast<int>(key.size()), key.data()));
  }
  return *found;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing content after the document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw Error(StrFormat("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(StrFormat("expected '%c'", c));
    }
    ++pos_;
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (no surrogate-pair handling: our reports are ASCII).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  // Containers recurse, so nesting is capped well above any document this
  // project writes (under 10 levels): hostile input fails with an Error
  // instead of overflowing the stack.
  static constexpr size_t kMaxDepth = 256;

  void Descend() {
    if (++depth_ > kMaxDepth) {
      Fail(StrFormat("nesting deeper than %zu levels", kMaxDepth));
    }
  }

  JsonValue ParseValue() {
    char c = Peek();
    JsonValue value;
    if (c == '{') {
      Descend();
      ++pos_;
      value.kind = JsonValue::Kind::kObject;
      if (!Consume('}')) {
        do {
          std::string key = (SkipWhitespace(), ParseString());
          Expect(':');
          value.object.emplace_back(std::move(key), ParseValue());
        } while (Consume(','));
        Expect('}');
      }
      --depth_;
      return value;
    }
    if (c == '[') {
      Descend();
      ++pos_;
      value.kind = JsonValue::Kind::kArray;
      if (!Consume(']')) {
        do {
          value.array.push_back(ParseValue());
        } while (Consume(','));
        Expect(']');
      }
      --depth_;
      return value;
    }
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.string = ParseString();
      return value;
    }
    SkipWhitespace();
    if (ConsumeWord("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (ConsumeWord("false")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      return value;
    }
    if (ConsumeWord("null")) {
      return value;
    }
    // Number.
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("unexpected character");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    value.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      Fail("malformed number");
    }
    value.kind = JsonValue::Kind::kNumber;
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // Open containers around pos_.
};

}  // namespace

JsonValue ParseJson(std::string_view text) { return Parser(text).ParseDocument(); }

}  // namespace wrl
