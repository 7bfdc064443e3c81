#include "lint/schema.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace presp::schema {

std::string closest_key(const std::string& key,
                        const std::vector<std::string>& known) {
  // Levenshtein distance: a typo is a few edits away, anything further is
  // a different word.
  std::size_t best = std::max<std::size_t>(2, key.size() / 4) + 1;
  std::string closest;
  for (const std::string& word : known) {
    std::vector<std::size_t> row(word.size() + 1);
    std::iota(row.begin(), row.end(), std::size_t{0});
    for (std::size_t i = 1; i <= key.size(); ++i) {
      std::size_t diagonal = std::exchange(row[0], i);
      for (std::size_t j = 1; j <= word.size(); ++j)
        diagonal = std::exchange(
            row[j], std::min({row[j] + 1, row[j - 1] + 1,
                              diagonal + (key[i - 1] == word[j - 1] ? 0 : 1)}));
    }
    if (row.back() < best) {
      best = row.back();
      closest = word;
    }
  }
  return closest;
}

}  // namespace presp::schema
