#include "net/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <system_error>
#include <type_traits>

// Under ASan a block on the free list is poisoned past its link, so
// reading through a view that outlived its root still reports.
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace sjos {
namespace net {

static_assert(sizeof(JsonValue) == 16,
              "JsonValue must stay small: result frames hold ~5e5 numbers");
static_assert(sizeof(JsonValue::Member) == 32);

namespace {

/// The size of one parse-tree block, the unit the free list keeps.
constexpr size_t kJsonBlockBytes = size_t{64} << 10;

/// Free parse-tree blocks, shared by every thread: a root that dies gives
/// its kJsonBlockBytes blocks back here, and the next parse takes them
/// before asking the heap, so a client reading result after result reuses
/// memory it has already faulted in. At most kJsonBlockPoolMaxBytes are
/// kept; a block over the bound goes back to the heap. One list under one
/// mutex, not one per thread, so a thread-per-connection server keeps the
/// bound once, not once per connection.
class BlockPool {
 public:
  /// Takes a block of kJsonBlockBytes from the list, or from the heap when
  /// the list is empty.
  static void* Take() {
    Pool& pool = Get();
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      if (FreeBlock* block = pool.head) {
        ASAN_UNPOISON_MEMORY_REGION(block + 1, kPoisonedBytes);
        pool.head = block->next;
        --pool.blocks;
        return block;
      }
    }
    return ::operator new(kJsonBlockBytes);
  }

  /// Keeps `block` (kJsonBlockBytes long) for reuse, or frees it when the
  /// list is full.
  static void Give(void* block) {
    Pool& pool = Get();
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      if ((pool.blocks + 1) * kJsonBlockBytes <= kJsonBlockPoolMaxBytes) {
        FreeBlock* free_block = new (block) FreeBlock{pool.head};
        pool.head = free_block;
        ++pool.blocks;
        ASAN_POISON_MEMORY_REGION(free_block + 1, kPoisonedBytes);
        return;
      }
    }
    ::operator delete(block);
  }

  static size_t Bytes() {
    Pool& pool = Get();
    std::lock_guard<std::mutex> lock(pool.mu);
    return pool.blocks * kJsonBlockBytes;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static constexpr size_t kPoisonedBytes = kJsonBlockBytes - sizeof(FreeBlock);
  struct Pool {
    std::mutex mu;
    FreeBlock* head = nullptr;
    size_t blocks = 0;
  };

  /// Never destroyed, so a tree that dies during static destruction can
  /// still give its blocks back.
  static Pool& Get() {
    static Pool* pool = new Pool;
    return *pool;
  }
};

/// Integers of at most this many digits are below 2^53, so converting
/// them digit by digit is exact and needs no from_chars.
constexpr size_t kMaxExactDigits = 15;

}  // namespace

size_t JsonBlockPoolBytes() { return BlockPool::Bytes(); }

/// A chain of blocks handing out 8-aligned runs that are freed all at once.
/// The arena object sits at the front of its first block, so a root's whole
/// tree costs one allocation per block. Blocks of kJsonBlockBytes come from
/// and go back to the BlockPool; a block sized to fit a longer run (or a
/// copy's exact size) comes from and goes back to the heap.
class JsonValue::Arena {
 public:
  /// A new arena in a pooled block, for a parse.
  static Arena* CreatePooled() {
    return Place(BlockPool::Take(), kJsonBlockBytes);
  }

  /// A new arena whose first block has room for exactly `bytes`, for a
  /// copy.
  static Arena* Create(size_t bytes) {
    const size_t total = sizeof(Arena) + bytes;
    return Place(::operator new(total), total);
  }

  static void Destroy(Arena* arena) {
    for (Block* b = arena->blocks_; b != nullptr;) {
      Block* next = b->next;
      Release(b, b->bytes);
      b = next;
    }
    const size_t first_bytes = arena->first_bytes_;
    arena->~Arena();
    Release(arena, first_bytes);
  }

  /// `bytes` rounded up to the arena's alignment; every run takes this
  /// many, so TreeBytes can size a copy's arena exactly.
  static size_t Rounded(size_t bytes) { return (bytes + 7) & ~size_t{7}; }

  void* Allocate(size_t bytes) {
    bytes = Rounded(bytes);
    if (static_cast<size_t>(end_ - cur_) < bytes) return AllocateSlow(bytes);
    void* run = cur_;
    cur_ += bytes;
    return run;
  }

  /// The free tail of the current block, where a run of unknown length is
  /// built in place; `*bytes` is its size. Nothing is taken until Take(),
  /// so otherwise the next run reuses the tail.
  char* Tail(size_t* bytes) {
    *bytes = static_cast<size_t>(end_ - cur_);
    return cur_;
  }

  /// Takes the first `bytes` of the tail.
  void Take(size_t bytes) { cur_ += Rounded(bytes); }

  /// Gives up the current block's tail for a new block whose tail holds at
  /// least `bytes`: a pooled block when that fits, else a block of exactly
  /// that size.
  void StartBlock(size_t bytes) {
    const size_t total = sizeof(Block) + bytes;
    const bool pooled = total <= kJsonBlockBytes;
    void* memory = pooled ? BlockPool::Take() : ::operator new(total);
    Block* block = new (memory)
        Block{blocks_, pooled ? kJsonBlockBytes : total};
    blocks_ = block;
    cur_ = reinterpret_cast<char*>(block + 1);
    end_ = static_cast<char*>(memory) + block->bytes;
  }

  /// A run of `bytes`; an `owner` run (an owning root's) is preceded by
  /// the header naming this arena.
  void* AllocateRun(size_t bytes, bool owner) {
    if (!owner) return Allocate(bytes);
    char* header = static_cast<char*>(Allocate(kRunHeaderBytes + bytes));
    Arena* self = this;
    std::memcpy(header, &self, sizeof(self));
    return header + kRunHeaderBytes;
  }

  /// A copy of `text` in the arena, as AllocateRun places it; empty text
  /// takes no space.
  std::string_view Copy(std::string_view text, bool owner = false) {
    if (text.empty()) return {};
    char* chars = static_cast<char*>(AllocateRun(text.size(), owner));
    std::memcpy(chars, text.data(), text.size());
    return {chars, text.size()};
  }

 private:
  struct Block {
    Block* next;
    /// The whole allocation, this header included.
    size_t bytes;
  };
  static_assert(sizeof(Block) % 8 == 0);

  /// Builds the arena at the front of `memory`, `bytes` long.
  static Arena* Place(void* memory, size_t bytes) {
    static_assert(sizeof(Arena) % 8 == 0,
                  "the first block's runs start right after the arena");
    char* data = static_cast<char*>(memory) + sizeof(Arena);
    return new (memory)
        Arena(data, static_cast<char*>(memory) + bytes, bytes);
  }

  /// Returns a block of `bytes` to the pool if it is pool-sized, else to
  /// the heap.
  static void Release(void* memory, size_t bytes) {
    if (bytes == kJsonBlockBytes) {
      BlockPool::Give(memory);
    } else {
      ::operator delete(memory);
    }
  }

  Arena(char* cur, char* end, size_t first_bytes)
      : cur_(cur), end_(end), first_bytes_(first_bytes) {}

  /// Starts a block for a run that does not fit the current one.
  void* AllocateSlow(size_t bytes) {
    StartBlock(bytes);
    void* run = cur_;
    cur_ += bytes;
    return run;
  }

  char* cur_;
  char* end_;
  /// Blocks after the first, newest first.
  Block* blocks_ = nullptr;
  /// The first block's whole allocation, this arena included.
  size_t first_bytes_;
};

size_t JsonValue::TreeBytes(const Node& node) {
  size_t bytes = 0;
  switch (node.kind) {
    case Kind::kString:
      bytes = Arena::Rounded(node.size);
      break;
    case Kind::kArray:
      bytes = node.size * sizeof(JsonValue);
      for (uint32_t i = 0; i < node.size; ++i) {
        bytes += TreeBytes(node.items[i].node_);
      }
      break;
    case Kind::kObject:
      bytes = node.size * sizeof(Member);
      for (uint32_t i = 0; i < node.size; ++i) {
        bytes += Arena::Rounded(node.members[i].first.size()) +
                 TreeBytes(node.members[i].second.node_);
      }
      break;
    default:
      break;
  }
  return bytes;
}

JsonValue::Node JsonValue::Clone(const Node& node, Arena* arena,
                                 bool owner) {
  static_assert(std::is_trivially_copyable_v<Node>);
  Node out = node;
  out.owner = false;
  if (node.size == 0) return out;  // a scalar, or nothing to copy
  switch (node.kind) {
    case Kind::kString:
      out.chars = arena->Copy({node.chars, node.size}, owner).data();
      break;
    case Kind::kArray: {
      JsonValue* items = static_cast<JsonValue*>(
          arena->AllocateRun(node.size * sizeof(JsonValue), owner));
      for (uint32_t i = 0; i < node.size; ++i) {
        new (items + i) JsonValue(Clone(node.items[i].node_, arena, false));
      }
      out.items = items;
      break;
    }
    case Kind::kObject: {
      Member* members = static_cast<Member*>(
          arena->AllocateRun(node.size * sizeof(Member), owner));
      for (uint32_t i = 0; i < node.size; ++i) {
        const Member& m = node.members[i];
        new (members + i) Member(
            arena->Copy(m.first),
            JsonValue(Clone(m.second.node_, arena, false)));
      }
      out.members = members;
      break;
    }
    default:
      break;
  }
  out.owner = owner;
  return out;
}

JsonValue::Arena* JsonValue::owned_arena() const {
  if (!node_.owner) return nullptr;
  const char* run = node_.kind == Kind::kString
                        ? node_.chars
                        : node_.kind == Kind::kArray
                              ? reinterpret_cast<const char*>(node_.items)
                              : reinterpret_cast<const char*>(node_.members);
  Arena* arena;
  std::memcpy(&arena, run - kRunHeaderBytes, sizeof(arena));
  return arena;
}

JsonValue::JsonValue(const JsonValue& other) : node_(other.node_) {
  node_.owner = false;
  const size_t bytes = TreeBytes(other.node_);
  if (bytes == 0) return;  // the node is the whole value
  node_ = Clone(other.node_, Arena::Create(kRunHeaderBytes + bytes), true);
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue::JsonValue(JsonValue&& other) noexcept : node_(other.node_) {
  if (node_.owner) other.node_ = Node();
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    if (Arena* arena = owned_arena()) Arena::Destroy(arena);
    node_ = other.node_;
    if (node_.owner) other.node_ = Node();
  }
  return *this;
}

JsonValue::~JsonValue() {
  if (Arena* arena = owned_arena()) Arena::Destroy(arena);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<std::string> JsonValue::GetString(std::string_view key,
                                         std::string fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a string");
  }
  return std::string(v->string_value());
}

Result<uint64_t> JsonValue::GetUint(std::string_view key,
                                    uint64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  const double n = v->number_value();
  if (n < 0 || n != std::floor(n) || n > 9.007199254740992e15) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(n);
}

Result<bool> JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a boolean");
  }
  return v->bool_value();
}

JsonValue JsonValue::MakeBool(bool b) {
  Node node;
  node.kind = Kind::kBool;
  node.boolean = b;
  return JsonValue(node);
}

JsonValue JsonValue::MakeNumber(double n) {
  return JsonValue(Node{.kind = Kind::kNumber, .number = n});
}

// The string and container factories describe their argument with a view
// and return a copy of it, which owns an arena sized to fit.

JsonValue JsonValue::MakeString(std::string s) {
  const JsonValue view(Node{.kind = Kind::kString,
                            .size = static_cast<uint32_t>(s.size()),
                            .chars = s.data()});
  return JsonValue(view);
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  const JsonValue view(Node{.kind = Kind::kArray,
                            .size = static_cast<uint32_t>(items.size()),
                            .items = items.data()});
  return JsonValue(view);
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  std::vector<Member> run;
  run.reserve(members.size());
  for (auto& [key, value] : members) run.emplace_back(key, std::move(value));
  const JsonValue view(Node{.kind = Kind::kObject,
                            .size = static_cast<uint32_t>(run.size()),
                            .members = run.data()});
  return JsonValue(view);
}

/// The parser's stacks are kept for the next parse while they hold at
/// most this many bytes (a 1e5-row result frame needs about 1.6 MB).
constexpr size_t kMaxSpareStackBytes = size_t{4} << 20;

/// The recursive-descent parser. Each container collects its children on
/// a stack the parser reuses (nested containers push above their parent's
/// children) and copies them into the arena as one run when it closes.
/// Internal steps return false after recording the first error.
class JsonParser {
 public:
  JsonParser(std::string_view text, size_t max_depth)
      : begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        last_stop_(LastNonDigit(text)),
        max_depth_(max_depth),
        stacks_(TakeStacks()),
        items_(stacks_->items),
        members_(stacks_->members),
        scratch_(stacks_->text) {}

  /// The value of last_stop_ for `text`.
  static const char* LastNonDigit(std::string_view text) {
    const char* p = text.data() + text.size();
    while (p != text.data()) {
      if (static_cast<unsigned char>(*--p - '0') >= 10) return p;
    }
    return text.data();
  }

  ~JsonParser() {
    if (arena_ != nullptr) Arena::Destroy(arena_);
    GiveStacks(std::move(stacks_));
  }
  JsonParser(const JsonParser&) = delete;
  JsonParser& operator=(const JsonParser&) = delete;

  Result<JsonValue> Parse() {
    Node root;
    if (!ParseDocument(&root)) return error_;
    // A root with a run owns the arena its run's header names. One without
    // (a scalar, an empty string or container) owns nothing, and the
    // parser frees whatever arena it made.
    if (root.size > 0) {
      root.owner = true;
      arena_ = nullptr;
    }
    return JsonValue(root);
  }

 private:
  using Kind = JsonValue::Kind;
  using Node = JsonValue::Node;
  using Arena = JsonValue::Arena;
  using Member = JsonValue::Member;

  /// An object member whose value is not in the arena yet.
  struct PendingMember {
    std::string_view key;
    Node value;
  };

  /// The children stacks and the string buffer one parse works in.
  struct Stacks {
    std::vector<Node> items;
    std::vector<PendingMember> members;
    std::string text;
  };

  /// One spare Stacks, shared by every thread, so a client decoding result
  /// after result does not grow its stacks again each time.
  struct Spare {
    std::mutex mu;
    std::unique_ptr<Stacks> stacks;
  };
  static Spare& spare() {
    static Spare* spare = new Spare;
    return *spare;
  }

  static std::unique_ptr<Stacks> TakeStacks() {
    Spare& s = spare();
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.stacks != nullptr) return std::move(s.stacks);
    }
    return std::make_unique<Stacks>();
  }

  /// Keeps `stacks`, emptied, as the spare unless they are over
  /// kMaxSpareStackBytes or another parse already returned a spare.
  static void GiveStacks(std::unique_ptr<Stacks> stacks) {
    if (stacks->items.capacity() * sizeof(Node) +
            stacks->members.capacity() * sizeof(PendingMember) +
            stacks->text.capacity() >
        kMaxSpareStackBytes) {
      return;
    }
    stacks->items.clear();
    stacks->members.clear();
    stacks->text.clear();
    Spare& s = spare();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.stacks == nullptr) s.stacks = std::move(stacks);
  }

  bool Fail(const char* why) {
    error_ = Status::ParseError("JSON error at byte " +
                                std::to_string(p_ - begin_) + ": " + why);
    return false;
  }

  /// The tree's arena, made on first use.
  Arena& arena() {
    if (arena_ == nullptr) arena_ = Arena::CreatePooled();
    return *arena_;
  }

  void SkipWs() {
    if (p_ != end_ && static_cast<unsigned char>(*p_) > ' ') return;
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (static_cast<size_t>(end_ - p_) >= word.size() &&
        std::memcmp(p_, word.data(), word.size()) == 0) {
      p_ += word.size();
      return true;
    }
    return false;
  }

  bool AtDigit() const {
    return p_ != end_ && static_cast<unsigned char>(*p_ - '0') < 10;
  }

  void SkipDigits() {
    while (AtDigit()) ++p_;
  }

  bool ParseDocument(Node* root) {
    if (static_cast<size_t>(end_ - begin_) >
        std::numeric_limits<uint32_t>::max()) {
      return Fail("document larger than 4 GiB");
    }
    SkipWs();
    if (!ParseValue(root, 0)) return false;
    SkipWs();
    return p_ == end_ || Fail("trailing characters after the JSON document");
  }

  bool ParseValue(Node* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string_view s;
        if (!ParseString(&s, depth == 0)) return false;
        out->kind = Kind::kString;
        out->size = static_cast<uint32_t>(s.size());
        out->chars = s.data();
        return true;
      }
      case 't':
        if (!ConsumeWord("true")) return Fail("invalid literal");
        out->kind = Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!ConsumeWord("false")) return Fail("invalid literal");
        out->kind = Kind::kBool;
        return true;
      case 'n':
        if (!ConsumeWord("null")) return Fail("invalid literal");
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Node* out, size_t depth) {
    ++p_;  // '{'
    out->kind = Kind::kObject;
    out->members = nullptr;
    SkipWs();
    if (Consume('}')) return true;
    const size_t base = members_.size();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Fail("expected a string object key");
      PendingMember member;
      if (!ParseString(&member.key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWs();
      if (!ParseValue(&member.value, depth + 1)) return false;
      members_.push_back(member);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    const size_t n = members_.size() - base;
    Member* run = static_cast<Member*>(
        arena().AllocateRun(n * sizeof(Member), depth == 0));
    for (size_t i = 0; i < n; ++i) {
      const PendingMember& m = members_[base + i];
      new (run + i) Member(m.key, JsonValue(m.value));
    }
    members_.resize(base);
    out->size = static_cast<uint32_t>(n);
    out->members = run;
    return true;
  }

  bool ParseArray(Node* out, size_t depth) {
    ++p_;  // '['
    out->kind = Kind::kArray;
    out->items = nullptr;
    SkipWs();
    if (Consume(']')) return true;
    const size_t base = items_.size();
    if (depth > 0 && depth < max_depth_ && AtDigit() && ParseIntegerRow(out)) {
      return true;
    }
    return ParseItems(out, depth, base);
  }

  /// The general array loop, from p_ at an item to past the array's ']'.
  /// The array's items before p_ are on items_ above `base`.
  bool ParseItems(Node* out, size_t depth, size_t base) {
    while (true) {
      SkipWs();
      if (depth + 1 < max_depth_ && AtRow()) {
        if (!ParseRows(depth + 1)) return false;
      } else {
        Node item;
        // Result rows are arrays of integers: parse those without dispatch.
        if (depth < max_depth_ && AtDigit()) {
          if (!ParseNumber(&item)) return false;
        } else if (!ParseValue(&item, depth + 1)) {
          return false;
        }
        items_.push_back(item);
      }
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    const size_t n = items_.size() - base;
    JsonValue* run = static_cast<JsonValue*>(
        arena().AllocateRun(n * sizeof(JsonValue), depth == 0));
    for (size_t i = 0; i < n; ++i) new (run + i) JsonValue(items_[base + i]);
    items_.resize(base);
    out->size = static_cast<uint32_t>(n);
    out->items = run;
    return true;
  }

  /// At a '[' followed at once by a digit: the start of a result row.
  bool AtRow() const {
    return end_ - p_ >= 2 && p_[0] == '[' &&
           static_cast<unsigned char>(p_[1] - '0') < 10;
  }

  /// Reads the rows of a result, at `depth`, from p_ at the first one
  /// onto items_, for as long as one follows the last at once after ','.
  /// p_ stops past the last row's ']'.
  bool ParseRows(size_t depth) {
    while (true) {
      Node row;
      row.kind = Kind::kArray;
      ++p_;  // '['
      const size_t base = items_.size();
      if (!ParseIntegerRow(&row) && !ParseItems(&row, depth, base)) {
        return false;
      }
      items_.push_back(row);
      if (end_ - p_ < 3 || p_[0] != ',' || p_[1] != '[' ||
          static_cast<unsigned char>(p_[2] - '0') >= 10) {
        return true;
      }
      ++p_;  // ','
    }
  }

  /// Reads the items of a result row (never the root), an array of short
  /// unsigned integers, from p_ (at its first item) straight into the
  /// arena's free tail. Returns true with the array in `out` and p_ past
  /// its ']'. At the first item that is not an integer of at most
  /// kMaxExactDigits digits followed at once by ',' or ']' (a sign,
  /// fraction, exponent, whitespace, a longer integer or any other value),
  /// returns false with the items before it on items_ and p_ at it, so the
  /// general loop goes on from there and reports any error as it would
  /// have. An item from last_stop_ on is left to the general loop too, so
  /// the digit loop needs no end check.
  bool ParseIntegerRow(Node* out) {
    Arena& a = arena();
    size_t bytes = 0;
    JsonValue* run = reinterpret_cast<JsonValue*>(a.Tail(&bytes));
    size_t capacity = bytes / sizeof(JsonValue);
    size_t n = 0;
    const char* p = p_;
    const char* const stop = last_stop_;
    while (p < stop) {
      const char* const item = p;
      unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
      if (digit >= 10) break;
      uint64_t value = digit;
      ++p;
      if (value != 0) {
        while ((digit = static_cast<unsigned char>(*p) - unsigned{'0'}) < 10) {
          value = value * 10 + digit;
          ++p;
        }
      }
      if (static_cast<size_t>(p - item) > kMaxExactDigits ||
          (*p != ',' && *p != ']')) {
        p = item;
        break;
      }
      if (n == capacity) {
        // Move the row to a block with room for twice as many items.
        a.StartBlock(2 * n * sizeof(JsonValue));
        JsonValue* moved = reinterpret_cast<JsonValue*>(a.Tail(&bytes));
        for (size_t i = 0; i < n; ++i) new (moved + i) JsonValue(run[i].node_);
        run = moved;
        capacity = bytes / sizeof(JsonValue);
      }
      new (run + n++) JsonValue(Node{
          .kind = Kind::kNumber,
          .number = static_cast<double>(static_cast<int64_t>(value))});
      if (*p++ == ']') {
        a.Take(n * sizeof(JsonValue));
        out->size = static_cast<uint32_t>(n);
        out->items = run;
        p_ = p;
        return true;
      }
    }
    for (size_t i = 0; i < n; ++i) items_.push_back(run[i].node_);
    p_ = p;
    return false;
  }

  /// Parses the string at p_ into the arena, as the run of an owning root
  /// if `root`. Text without escapes is copied straight from the input;
  /// otherwise it is decoded into a scratch buffer first.
  bool ParseString(std::string_view* text, bool root = false) {
    ++p_;  // '"'
    const char* const start = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
           static_cast<unsigned char>(*p_) >= 0x20) {
      ++p_;
    }
    if (p_ != end_ && *p_ == '"') {
      *text = arena().Copy({start, static_cast<size_t>(p_ - start)}, root);
      ++p_;
      return true;
    }
    std::string* out = &scratch_;
    out->assign(start, p_);
    while (true) {
      if (p_ == end_) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        *text = arena().Copy(*out, root);
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++p_;
        continue;
      }
      ++p_;  // backslash
      if (p_ == end_) return Fail("truncated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          // Surrogate pair?
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            p_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (end_ - p_ < 4) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape digit");
      }
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Checks the JSON number grammar, then converts the accepted span: a
  /// short integer digit by digit (accumulated while its digits are
  /// checked), anything else with std::from_chars, which rounds exactly
  /// as strtod does. An overflow is an error; an underflow reads as
  /// strtod returns it.
  bool ParseNumber(Node* out) {
    const char* const start = p_;
    const bool negative = Consume('-');
    if (!AtDigit()) return Fail("invalid number");
    const char* const int_begin = p_;
    uint64_t n = 0;  // wraps past 19 digits, but is then unused
    if (*p_ == '0') {
      ++p_;
    } else {
      do {
        n = n * 10 + static_cast<uint64_t>(*p_ - '0');
        ++p_;
      } while (AtDigit());
    }
    const char* const int_end = p_;
    if (Consume('.')) {
      if (!AtDigit()) return Fail("invalid number: missing fraction digits");
      SkipDigits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!AtDigit()) return Fail("invalid number: missing exponent digits");
      SkipDigits();
    }
    out->kind = Kind::kNumber;
    if (p_ == int_end &&
        static_cast<size_t>(int_end - int_begin) <= kMaxExactDigits) {
      // Result rows are short integers, and those are exact in a double.
      const double value = static_cast<double>(n);
      out->number = negative ? -value : value;
      return true;
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(start, p_, value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike. Only hostile
      // input gets here, so let strtod tell them apart: underflow reads
      // as a (signed) zero or subnormal, overflow as an infinity.
      value = std::strtod(std::string(start, p_).c_str(), nullptr);
    } else if (ec != std::errc() || end != p_) {
      return Fail("number out of range");
    }
    if (!std::isfinite(value)) return Fail("number out of range");
    out->number = value;
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  /// The text's last byte that is not a digit, or begin_ if there is none.
  /// A run of digits that starts before it ends at or before it, so a digit
  /// loop from there needs no end check.
  const char* const last_stop_;
  const size_t max_depth_;
  Status error_;
  /// The arena of the tree being built; handed to the root on success.
  Arena* arena_ = nullptr;
  std::unique_ptr<Stacks> stacks_;
  /// Children of the containers still open, innermost last.
  std::vector<Node>& items_;
  std::vector<PendingMember>& members_;
  /// Decoding buffer for strings with escapes.
  std::string& scratch_;
};

Result<JsonValue> ParseJson(std::string_view text, size_t max_depth) {
  return JsonParser(text, max_depth).Parse();
}

}  // namespace net
}  // namespace sjos
