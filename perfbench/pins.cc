/**
 * @file
 * Seed-0 pins: the sweep digest and every cell fingerprint of each
 * workload at its Spec::instsPerTrace.  A simulator-speed change must
 * leave them bit-identical.  After an intended change to the simulated model,
 * regenerate a workload's entry with
 *
 *   perfbench_driver --print-pins <workload>
 *
 * and say in the change which behaviour moved and why.  The digests
 * equal `replaybench fig6` and `replaybench fig10` at the default
 * budget and `replaybench --insts 200000 coverage`.
 */

#include "bench.hh"

namespace perfbench {

namespace {

const std::vector<std::pair<std::string, SeedZeroPins>> kPins = {
    {"paper-sweep",
     {0x1abec711dc74317bULL,
      {
       0x327d9d1b93706128ULL, 0x7086cc184de7af20ULL, 0xfe8bebf239ab053aULL,
       0x46c5b74d16665c80ULL, 0x49f7f5fb0956b3ceULL, 0x5e09988f7666a1efULL,
       0xf18cbcaadef234c6ULL, 0xe1e3539eada81c32ULL, 0xea9e4af8638a2384ULL,
       0xca83723315b1d2b5ULL, 0xf269bca26c69adb7ULL, 0x00ce356a6c980954ULL,
       0xcb8f93702c13acddULL, 0xa286aba1c022b07bULL, 0xd3a321961c1a2a84ULL,
       0x563252807262e4aaULL, 0x0b5bb699a22008fdULL, 0x3c55a831d270c3a7ULL,
       0x86f7fe0d5a76dafeULL, 0xc3cfdfc4987e191cULL, 0xa0164969bd3d9b3bULL,
       0x45073691bc8ed2cdULL, 0x381fbe11c40ecb2aULL, 0x6f4dafa949bf2832ULL,
       0xdf312794ad85851fULL, 0xbe14ef43e38f1558ULL, 0x600083b9089ebda0ULL,
       0xf8915db57986bdd1ULL, 0xa5218419b3f11dd1ULL, 0xac3037d68e1ded77ULL,
       0xfe9b6f11cb7750b9ULL, 0xa0ff7b4c9071aab5ULL, 0xef5165261ea76473ULL,
       0xa1f8944fb0f4d788ULL, 0x72fa26a384c49056ULL, 0xac2c4c5ee2d9c817ULL,
       0x65a1b7ee30249d18ULL, 0x38be0ae8b7430801ULL, 0x2eec51fcfca84e0dULL,
       0xc75933603614d4f1ULL, 0x67ebdf07a9a53cbeULL, 0x57bf7706eb54ecb0ULL,
       0x7771a84416b7fa18ULL, 0x40ff37db166e8545ULL, 0xee2f998d872b9850ULL,
       0x11f793ddbba551e9ULL, 0x1ac3a8c0188fa410ULL, 0xaa09504e5aa6a4f3ULL,
       0x0890c2ab453f6473ULL, 0xf4ce4745d5c6ca3cULL, 0xd03e7ed8c6dcccf8ULL,
       0xe4a7f615efa91cd2ULL, 0xea7fe986e02afc59ULL, 0xc0880ca74039fbefULL,
       0x3663c864b2d2d9b5ULL, 0x41bceef6b5c6d79bULL,
      }}},
    {"ablation-fanout",
     {0x8e03aec16a18e624ULL,
      {
       0xfe8bebf239ab053aULL, 0x46c5b74d16665c80ULL, 0x4973e9cb086af4efULL,
       0x6f0552c6f0a1d67dULL, 0xbe830f3aa4d83b19ULL, 0xfb957ef9ea839da6ULL,
       0x9fb33ad3b9ef0c67ULL, 0xa1c5ef9a92e67b95ULL, 0xf18cbcaadef234c6ULL,
       0xe1e3539eada81c32ULL, 0x7b8f13be18fd9827ULL, 0x842d3c60a3deaabcULL,
       0xb26bda9f1a6c57e0ULL, 0xe4c80e34590d7f53ULL, 0xd12431b509b17d62ULL,
       0x61cb5668f50c3af7ULL, 0x600083b9089ebda0ULL, 0xf8915db57986bdd1ULL,
       0x0dd78a2b3ddbe124ULL, 0xa7de4b0adefc17c2ULL, 0xfc9620d1c8d172c2ULL,
       0x9d2ef7986b9772b0ULL, 0x20c35d2e705b098dULL, 0xc5774b1bfc7ede48ULL,
       0x72fa26a384c49056ULL, 0xac2c4c5ee2d9c817ULL, 0x7d5e6d18242fdb13ULL,
       0xba260c6681be1f3fULL, 0xf75a3e12e9af33d9ULL, 0x2c200281e6283205ULL,
       0xcd93b3941cf40aa7ULL, 0xb49471ae7d5828ebULL, 0x2eec51fcfca84e0dULL,
       0xc75933603614d4f1ULL, 0x94de2ea1690cd42cULL, 0x86b943f6e9e861d7ULL,
       0x0c7240546a4021f4ULL, 0xfabe2e8ff36ad368ULL, 0xdece3ed43e092901ULL,
       0x1617af28896d04b5ULL,
      }}},
    {"corpus-replay",
     {0x570d4a78ef578be0ULL,
      {
       0xaf31c85b71fec296ULL, 0xef2e0d34f2f81136ULL, 0xdc3fc7a682e0f983ULL,
       0x2079f17b79d7bfe1ULL, 0x2afe312b655fb3b1ULL, 0xf70ff801d5c24da5ULL,
       0x85896cd30f208933ULL, 0x0748abfccdd2be31ULL, 0xf153d1a0fe04bfa6ULL,
       0x39b136b1a6410c12ULL, 0x157bc0f71a4d809eULL, 0xe1c2bf86d19d08cbULL,
       0xefbb6ec91b494760ULL, 0xc52fa5769f2c630fULL,
      }}},
};

} // namespace

const SeedZeroPins *
seedZeroPins(const std::string &name)
{
    for (const auto &[workload, pins] : kPins)
        if (workload == name)
            return &pins;
    return nullptr;
}

} // namespace perfbench
