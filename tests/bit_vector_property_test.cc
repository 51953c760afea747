#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/bit_vector.h"
#include "util/random.h"

namespace rpqlearn {
namespace {

// Property tests for the BitVector word-level operations (and/or/andnot,
// popcount, set-bit indices, raw word access), cross-checked against a naive
// std::vector<bool> model over randomized sizes — including 0, the 63/64/65
// word boundaries, and sizes whose last word is partially used.

/// Naive reference model mirroring one BitVector.
using Model = std::vector<bool>;

BitVector FromModel(const Model& model) {
  BitVector bv(model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    if (model[i]) bv.Set(i);
  }
  return bv;
}

Model RandomModel(Rng* rng, size_t size, double density) {
  Model model(size);
  for (size_t i = 0; i < size; ++i) model[i] = rng->NextBernoulli(density);
  return model;
}

void ExpectMatchesModel(const BitVector& bv, const Model& model,
                        const char* context) {
  ASSERT_EQ(bv.size(), model.size()) << context;
  size_t expected_count = 0;
  std::vector<uint32_t> expected_indices;
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(bv.Test(i), static_cast<bool>(model[i]))
        << context << ", bit " << i;
    if (model[i]) {
      ++expected_count;
      expected_indices.push_back(static_cast<uint32_t>(i));
    }
  }
  EXPECT_EQ(bv.Count(), expected_count) << context;
  EXPECT_EQ(bv.Any(), expected_count > 0) << context;
  EXPECT_EQ(bv.ToIndices(), expected_indices) << context;
  // The raw words agree with the model, and tail bits beyond size() are 0.
  ASSERT_EQ(bv.num_words(), (model.size() + 63) / 64) << context;
  for (size_t wi = 0; wi < bv.num_words(); ++wi) {
    uint64_t expected_word = 0;
    for (size_t bit = 0; bit < 64; ++bit) {
      const size_t i = wi * BitVector::kBitsPerWord + bit;
      if (i < model.size() && model[i]) expected_word |= uint64_t{1} << bit;
    }
    EXPECT_EQ(bv.Word(wi), expected_word) << context << ", word " << wi;
  }
}

// Sizes straddling word boundaries plus a multi-word case.
const size_t kSizes[] = {0, 1, 5, 63, 64, 65, 127, 128, 129, 300};

TEST(BitVectorWordOpsTest, ConstructionAndMutationMatchModel) {
  Rng rng(101);
  for (size_t size : kSizes) {
    for (double density : {0.0, 0.1, 0.5, 1.0}) {
      Model model = RandomModel(&rng, size, density);
      BitVector bv = FromModel(model);
      ExpectMatchesModel(bv, model, "after construction");
      // Random Set/Reset/Assign churn stays in sync.
      for (int step = 0; step < 50 && size > 0; ++step) {
        const size_t i = rng.NextBelow(size);
        switch (rng.NextBelow(3)) {
          case 0:
            bv.Set(i);
            model[i] = true;
            break;
          case 1:
            bv.Reset(i);
            model[i] = false;
            break;
          default: {
            const bool value = rng.NextBernoulli(0.5);
            bv.Assign(i, value);
            model[i] = value;
            break;
          }
        }
      }
      ExpectMatchesModel(bv, model, "after mutation churn");
      bv.Clear();
      model.assign(size, false);
      ExpectMatchesModel(bv, model, "after Clear");
    }
  }
}

TEST(BitVectorWordOpsTest, AndOrAndNotMatchModel) {
  Rng rng(102);
  for (size_t size : kSizes) {
    for (int iteration = 0; iteration < 8; ++iteration) {
      const Model ma = RandomModel(&rng, size, 0.4);
      const Model mb = RandomModel(&rng, size, 0.4);
      const BitVector a = FromModel(ma);
      const BitVector b = FromModel(mb);

      BitVector or_result = a;
      or_result.OrWith(b);
      Model or_model(size);
      for (size_t i = 0; i < size; ++i) or_model[i] = ma[i] || mb[i];
      ExpectMatchesModel(or_result, or_model, "OrWith");

      BitVector and_result = a;
      and_result.AndWith(b);
      Model and_model(size);
      for (size_t i = 0; i < size; ++i) and_model[i] = ma[i] && mb[i];
      ExpectMatchesModel(and_result, and_model, "AndWith");

      BitVector andnot_result = a;
      andnot_result.SubtractWith(b);
      Model andnot_model(size);
      for (size_t i = 0; i < size; ++i) andnot_model[i] = ma[i] && !mb[i];
      ExpectMatchesModel(andnot_result, andnot_model, "SubtractWith");

      // Algebraic cross-checks: (a∖b) ∪ (a∩b) = a, and a∖b ⊆ a.
      BitVector recombined = andnot_result;
      recombined.OrWith(and_result);
      EXPECT_TRUE(recombined == a) << "size " << size;
      EXPECT_TRUE(andnot_result.IsSubsetOf(a)) << "size " << size;
    }
  }
}

TEST(BitVectorWordOpsTest, CountEqualsWordPopcountSum) {
  Rng rng(104);
  for (size_t size : kSizes) {
    const BitVector bv = FromModel(RandomModel(&rng, size, 0.3));
    size_t total = 0;
    for (size_t wi = 0; wi < bv.num_words(); ++wi) {
      total += static_cast<size_t>(std::popcount(bv.Word(wi)));
    }
    EXPECT_EQ(bv.Count(), total) << "size " << size;
  }
}

}  // namespace
}  // namespace rpqlearn
