#include "xml/generators/xmark_gen.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "xml/builder.h"

namespace sjos {

namespace {

const char* const kRegions[] = {"africa", "asia", "australia", "europe",
                                "namerica", "samerica"};
const char* const kCategories[] = {"electronics", "books", "art", "tools"};

class XmarkGrower {
 public:
  XmarkGrower(const XmarkGenConfig& config, Rng* rng, DocumentBuilder* builder)
      : config_(config), rng_(rng), builder_(builder) {}

  uint64_t used() const { return used_; }

  void Open(const char* tag) {
    builder_->OpenElement(tag);
    ++used_;
  }
  void Close() { builder_->CloseElement(); }
  void Leaf(const char* tag, const std::string& text) {
    Open(tag);
    if (!text.empty()) builder_->Text(text);
    Close();
  }

  /// Recursive text markup: description -> parlist -> listitem -> (text |
  /// parlist). This is XMark's only recursive structure.
  void EmitParlist(uint32_t depth) {
    Open("parlist");
    uint64_t items = 1 + rng_->NextBelow(3);
    for (uint64_t i = 0; i < items; ++i) {
      Open("listitem");
      if (depth < config_.max_parlist_depth && rng_->NextBool(0.3)) {
        EmitParlist(depth + 1);
      } else {
        Leaf("text", "lorem ipsum");
      }
      Close();
    }
    Close();
  }

  void EmitDescription() {
    Open("description");
    if (rng_->NextBool(0.6)) {
      EmitParlist(1);
    } else {
      Leaf("text", "plain description");
    }
    Close();
  }

  void EmitItem(uint64_t serial) {
    Open("item");
    Leaf("@id", StrFormat("item%llu", static_cast<unsigned long long>(serial)));
    Leaf("location", "internet");
    Leaf("name",
         StrFormat("gadget %llu", static_cast<unsigned long long>(serial)));
    Leaf("payment", "credit card");
    EmitDescription();
    uint64_t incategories = 1 + rng_->NextBelow(2);
    for (uint64_t i = 0; i < incategories; ++i) {
      Leaf("incategory", kCategories[rng_->NextBelow(std::size(kCategories))]);
    }
    Close();
  }

  void EmitPerson(uint64_t serial) {
    Open("person");
    Leaf("@id",
         StrFormat("person%llu", static_cast<unsigned long long>(serial)));
    Leaf("name",
         StrFormat("user %llu", static_cast<unsigned long long>(serial)));
    Leaf("emailaddress", "user@example.com");
    if (rng_->NextBool(0.5)) {
      Open("address");
      Leaf("street", "main st");
      Leaf("city", "ann arbor");
      Leaf("country", "united states");
      Close();
    }
    if (rng_->NextBool(0.3)) {
      Open("profile");
      Leaf("interest", kCategories[rng_->NextBelow(std::size(kCategories))]);
      Leaf("age", StrFormat("%llu", static_cast<unsigned long long>(
                                        18 + rng_->NextBelow(60))));
      Close();
    }
    Close();
  }

  void EmitAuction(uint64_t serial, uint64_t num_people) {
    Open("open_auction");
    Leaf("@id",
         StrFormat("auction%llu", static_cast<unsigned long long>(serial)));
    Leaf("initial", StrFormat("%llu.00", static_cast<unsigned long long>(
                                             5 + rng_->NextBelow(200))));
    uint64_t bidders = rng_->NextBelow(5);
    for (uint64_t i = 0; i < bidders; ++i) {
      Open("bidder");
      Leaf("date", "07/06/2001");
      Leaf("personref",
           StrFormat("person%llu", static_cast<unsigned long long>(
                                       rng_->NextBelow(num_people + 1))));
      Leaf("increase", StrFormat("%llu.00", static_cast<unsigned long long>(
                                                1 + rng_->NextBelow(20))));
      Close();
    }
    Leaf("itemref", StrFormat("item%llu", static_cast<unsigned long long>(
                                              rng_->NextBelow(serial + 1))));
    EmitDescription();
    Close();
  }

 private:
  const XmarkGenConfig& config_;
  Rng* rng_;
  DocumentBuilder* builder_;
  uint64_t used_ = 0;
};

}  // namespace

Result<Document> GenerateXmark(const XmarkGenConfig& config) {
  if (config.target_nodes < 16) {
    return Status::InvalidArgument("target_nodes must be >= 16");
  }
  Rng rng(config.seed);
  DocumentBuilder builder;
  builder.OpenElement("site");
  XmarkGrower grower(config, &rng, &builder);

  const uint64_t budget = config.target_nodes - 1;
  const uint64_t items_budget =
      static_cast<uint64_t>(static_cast<double>(budget) * config.items_share);
  const uint64_t people_budget =
      static_cast<uint64_t>(static_cast<double>(budget) * config.people_share);

  grower.Open("regions");
  uint64_t item_serial = 0;
  size_t region_idx = 0;
  grower.Open(kRegions[region_idx]);
  while (grower.used() < items_budget) {
    grower.EmitItem(item_serial++);
    // Rotate through regions so each holds a contiguous run of items.
    if (item_serial % 64 == 0) {
      grower.Close();
      region_idx = (region_idx + 1) % std::size(kRegions);
      grower.Open(kRegions[region_idx]);
    }
  }
  grower.Close();  // last region
  grower.Close();  // regions

  grower.Open("people");
  uint64_t person_serial = 0;
  while (grower.used() < items_budget + people_budget) {
    grower.EmitPerson(person_serial++);
  }
  grower.Close();

  grower.Open("open_auctions");
  uint64_t auction_serial = 0;
  while (grower.used() + 1 < budget) {
    grower.EmitAuction(auction_serial++, person_serial);
  }
  grower.Close();

  builder.CloseElement();  // site
  return std::move(builder).Build();
}

}  // namespace sjos
