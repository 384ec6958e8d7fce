// Fixture [rand]: unseeded randomness outside src/rand must be flagged;
// the seeded rnd::Rng substrate is the only legal source.
#include <algorithm>
#include <cstdlib>
#include <random>
#include <vector>

namespace fixture {

int UnseededDraw() {
  std::srand(42);                    // expect(rand)
  return rand();                     // expect(rand)
}

double UnseededDrand() {
  return drand48();                  // expect(rand)
}

struct Rng {  // stand-in for rnd::Rng
  unsigned long long state = 1;
  unsigned long long Next() { return state = state * 6364136223846793005ull + 1ull; }
};

// Library-dependent draws: engines, distributions and shuffles belong to
// the standard library, not to rnd::Rng's owned engine.
unsigned long long LibraryEngines(unsigned long long seed) {
  std::mt19937_64 wide(seed);                          // expect(rand)
  std::mt19937 narrow(1u);                             // expect(rand)
  std::minstd_rand lcg(2u);                            // expect(rand)
  std::default_random_engine plain;                    // expect(rand)
  return wide() + narrow() + lcg() + plain();
}

double LibraryDistributions(std::mt19937_64& e) {  // expect(rand)
  std::uniform_int_distribution<int> die(1, 6);     // expect(rand)
  return std::exponential_distribution<double>(2.0)(e) +  // expect(rand)
         die(e);
}

void LibraryShuffles(std::vector<int>& v, std::vector<int>& out, Rng& rng) {
  std::shuffle(v.begin(), v.end(), rng);                      // expect(rand)
  std::sample(v.begin(), v.end(), out.begin(), 3, rng);       // expect(rand)
}

// Negative: names that merely contain the words are not draws.
int Sampled(const std::vector<int>& shuffle_order, int uniform_distribution) {
  return static_cast<int>(shuffle_order.size()) + uniform_distribution;
}

// Negative: seeded substrate use is clean.
unsigned long long SeededDraw(Rng& rng) { return rng.Next(); }

// Negative: a documented, reviewed seam stays silent via the escape hatch.
int LegacyEntropy() {
  return rand();  // omcast-lint: allow(rand)
}

}  // namespace fixture
