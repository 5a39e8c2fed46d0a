#include "common/random.h"

#include <algorithm>

namespace opdvfs {

WeightedSampler::WeightedSampler(const std::vector<double> &weights)
{
    prefix_.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
        acc += w;
        prefix_.push_back(acc);
    }
}

std::size_t
WeightedSampler::draw(Rng &rng) const
{
    double total = prefix_.empty() ? 0.0 : prefix_.back();
    if (total <= 0.0)
        return rng.index(prefix_.size());

    // The first index whose running sum exceeds r: the prefix sums
    // never decrease, so this is where a linear scan would stop.
    double r = rng.uniform(0.0, total);
    auto it = std::upper_bound(prefix_.begin(), prefix_.end(), r);
    if (it == prefix_.end())
        return prefix_.size() - 1;
    return static_cast<std::size_t>(it - prefix_.begin());
}

} // namespace opdvfs
