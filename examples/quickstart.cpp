// Quickstart: build a tiny probabilistic stream by hand, run a Regular
// event query, and print the per-timestep probability that it is satisfied.
//
// Scenario (Fig. 1 of the paper): Joe walks past an RFID antenna, then the
// readers go quiet — is he in his office or still in the hallway? We query
// for "Joe was in the hallway and then entered his office".
#include <cstdio>

#include "engine/lahar.h"

int main() {
  using namespace lahar;

  EventDatabase db;

  // Schema: At(tag | location, T) — tag is the event key.
  EventSchema schema;
  schema.type = db.interner().Intern("At");
  schema.attr_names = {db.interner().Intern("tag"),
                       db.interner().Intern("location")};
  schema.num_key_attrs = 1;
  if (auto s = db.DeclareSchema(schema); !s.ok()) {
    std::fprintf(stderr, "schema: %s\n", s.ToString().c_str());
    return 1;
  }

  // Joe's location distribution over 5 timesteps (an inference output):
  // certain in the hallway at t=1-2, then increasingly likely in the office.
  Stream joe(schema.type, {db.Sym("Joe")}, /*num_value_attrs=*/1,
             /*horizon=*/5, /*markovian=*/false);
  DomainIndex hall = joe.InternTuple({db.Sym("hallway")});
  DomainIndex office = joe.InternTuple({db.Sym("office")});
  const double office_prob[6] = {0, 0.0, 0.0, 0.4, 0.6, 0.8};
  for (Timestamp t = 1; t <= 5; ++t) {
    std::vector<double> dist(joe.domain_size(), 0.0);
    dist[office] = office_prob[t];
    dist[hall] = 1.0 - office_prob[t];
    if (auto s = joe.SetMarginal(t, dist); !s.ok()) {
      std::fprintf(stderr, "marginal: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!db.AddStream(std::move(joe)).ok()) return 1;

  // The event query: hallway, then office (immediate-successor semantics).
  // Lahar parses and classifies it (Regular) and evaluates it to the horizon.
  Lahar lahar(&db);
  auto answer = lahar.Run(
      "At('Joe', l1 : l1 = 'hallway'); At('Joe', l2 : l2 = 'office')");
  if (!answer.ok()) {
    std::fprintf(stderr, "query: %s\n", answer.status().ToString().c_str());
    return 1;
  }

  std::printf("t   P[Joe entered his office at t]\n");
  for (Timestamp t = 1; t < answer->probs.size(); ++t) {
    std::printf("%-3u %.4f\n", t, answer->probs[t]);
  }
  return 0;
}
