#include "xml/generators/dblp_gen.h"

#include "common/rng.h"
#include "common/str_util.h"
#include "xml/builder.h"

namespace sjos {

namespace {

const char* const kAuthors[] = {"j. gray",    "m. stonebraker", "d. dewitt",
                                "h. garcia",  "r. ramakrishnan", "j. ullman",
                                "s. abiteboul", "d. suciu",      "j. widom",
                                "h. jagadish"};
const char* const kVenues[] = {"sigmod", "vldb", "icde", "pods", "edbt"};
const char* const kJournals[] = {"tods", "vldbj", "tkde", "cacm"};
const char* const kTitleWords[] = {"query",    "optimization", "index",
                                   "join",     "xml",          "storage",
                                   "parallel", "transaction",  "stream"};

class DblpGrower {
 public:
  DblpGrower(const DblpGenConfig& config, Rng* rng, DocumentBuilder* builder)
      : config_(config), rng_(rng), builder_(builder) {}

  uint64_t used() const { return used_; }

  bool Open(const char* tag) {
    builder_->OpenElement(tag);
    ++used_;
    return true;
  }

  void Leaf(const char* tag, const std::string& text) {
    Open(tag);
    builder_->Text(text);
    builder_->CloseElement();
  }

  std::string RandomTitle() {
    std::string title;
    uint64_t words = 2 + rng_->NextBelow(4);
    for (uint64_t i = 0; i < words; ++i) {
      if (i > 0) title += ' ';
      title += kTitleWords[rng_->NextBelow(std::size(kTitleWords))];
    }
    return title;
  }

  /// Titles in real DBLP carry inline markup (<i>, <sub>, <sup>); emit it
  /// as a child element so structural queries can reach level 3.
  void EmitTitle() {
    Open("title");
    builder_->Text(RandomTitle());
    if (rng_->NextBool(config_.title_markup_prob)) {
      double kind = rng_->NextDouble();
      const char* tag = kind < 0.7 ? "i" : (kind < 0.85 ? "sub" : "sup");
      Leaf(tag, kTitleWords[rng_->NextBelow(std::size(kTitleWords))]);
    }
    builder_->CloseElement();
  }

  void EmitRecord(uint64_t serial) {
    double kind = rng_->NextDouble();
    const char* tag;
    if (kind < config_.inproceedings_fraction) {
      tag = "inproceedings";
    } else if (kind <
               config_.inproceedings_fraction + config_.article_fraction) {
      tag = "article";
    } else {
      tag = rng_->NextBool(0.5) ? "book" : "phdthesis";
    }
    Open(tag);
    Leaf("@key",
         StrFormat("rec/%llu", static_cast<unsigned long long>(serial)));
    uint64_t authors = 1 + rng_->NextBelow(static_cast<uint64_t>(
                               config_.authors_per_record * 2));
    for (uint64_t i = 0; i < authors; ++i) {
      Leaf("author", kAuthors[rng_->NextZipf(std::size(kAuthors), 0.7)]);
    }
    EmitTitle();
    Leaf("year", StrFormat("%lld", static_cast<long long>(
                                       1975 + rng_->NextBelow(28))));
    if (std::string_view(tag) == "inproceedings") {
      Leaf("booktitle", kVenues[rng_->NextZipf(std::size(kVenues), 0.5)]);
      Leaf("pages",
           StrFormat("%llu-%llu",
                     static_cast<unsigned long long>(rng_->NextBelow(400)),
                     static_cast<unsigned long long>(rng_->NextBelow(400) +
                                                     400)));
    } else if (std::string_view(tag) == "article") {
      Leaf("journal", kJournals[rng_->NextZipf(std::size(kJournals), 0.5)]);
      Leaf("volume", StrFormat("%llu", static_cast<unsigned long long>(
                                           1 + rng_->NextBelow(30))));
    } else {
      Leaf("publisher", "acm press");
    }
    if (rng_->NextBool(config_.cite_prob)) {
      uint64_t cites = 1 + rng_->NextBelow(3);
      for (uint64_t i = 0; i < cites; ++i) {
        // Real DBLP cites carry a label attribute -> "@label" child.
        Open("cite");
        Leaf("@label",
             StrFormat("[%llu]", static_cast<unsigned long long>(i + 1)));
        builder_->Text(StrFormat("rec/%llu", static_cast<unsigned long long>(
                                                 rng_->NextBelow(serial + 1))));
        builder_->CloseElement();
      }
    }
    builder_->CloseElement();
  }

 private:
  const DblpGenConfig& config_;
  Rng* rng_;
  DocumentBuilder* builder_;
  uint64_t used_ = 0;
};

}  // namespace

Result<Document> GenerateDblp(const DblpGenConfig& config) {
  if (config.target_nodes < 2) {
    return Status::InvalidArgument("target_nodes must be >= 2");
  }
  Rng rng(config.seed);
  DocumentBuilder builder;
  builder.OpenElement("dblp");
  DblpGrower grower(config, &rng, &builder);
  uint64_t serial = 0;
  while (grower.used() + 1 < config.target_nodes) {
    grower.EmitRecord(serial++);
  }
  builder.CloseElement();
  return std::move(builder).Build();
}

}  // namespace sjos
