#include "sim/trace_generator.h"

#include <algorithm>

#include "inference/particle_filter.h"

namespace lahar {
namespace {

DiscreteHmm MakeModel(const Floorplan& fp, const PipelineConfig& config) {
  auto hmm = DiscreteHmm::Create(
      fp.UniformPrior(),
      fp.MotionModel(config.hall_stay, config.room_stay, config.coffee_bias));
  // The floorplan always yields a valid stochastic model.
  return std::move(*hmm);
}

}  // namespace

TracePipeline::TracePipeline(const Floorplan* floorplan, PipelineConfig config)
    : floorplan_(floorplan),
      config_(config),
      sensor_(floorplan, config.read_rate, config.bleed_rate),
      model_(MakeModel(*floorplan, config)) {}

TagTrace TracePipeline::Observe(std::string name, TruePath true_path,
                                Rng* rng) const {
  TagTrace tag;
  tag.name = std::move(name);
  tag.readings.resize(true_path.size());
  for (Timestamp t = 1; t < true_path.size(); ++t) {
    tag.readings[t] = sensor_.Sample(true_path[t], rng);
  }
  tag.true_path = std::move(true_path);
  return tag;
}

Status TracePipeline::DeclareWorld(EventDatabase* db) const {
  SymbolId at = db->interner().Intern("At");
  if (db->FindSchema(at) == nullptr) {
    EventSchema schema;
    schema.type = at;
    schema.attr_names = {db->interner().Intern("tag"),
                         db->interner().Intern("location")};
    schema.num_key_attrs = 1;
    LAHAR_RETURN_NOT_OK(db->DeclareSchema(schema));
  }
  struct Def {
    const char* name;
    bool (*pred)(RoomType);
  };
  const Def defs[] = {
      {"Hallway", [](RoomType t) { return t == RoomType::kHallway; }},
      {"Office", [](RoomType t) { return t == RoomType::kOffice; }},
      {"CoffeeRoom", [](RoomType t) { return t == RoomType::kCoffeeRoom; }},
      {"LectureRoom", [](RoomType t) { return t == RoomType::kLectureRoom; }},
      {"Lobby", [](RoomType t) { return t == RoomType::kLobby; }},
      {"Room",
       [](RoomType t) {
         return t == RoomType::kOffice || t == RoomType::kCoffeeRoom ||
                t == RoomType::kLectureRoom;
       }},
      {"NotRoom",
       [](RoomType t) {
         return t == RoomType::kHallway || t == RoomType::kLobby;
       }},
  };
  for (const Def& def : defs) {
    LAHAR_ASSIGN_OR_RETURN(Relation * rel, db->DeclareRelation(def.name, 1));
    for (const Location& loc : floorplan_->locations()) {
      if (def.pred(loc.type)) {
        LAHAR_RETURN_NOT_OK(rel->Insert({db->Sym(loc.name)}));
      }
    }
  }
  return Status::OK();
}

Result<StreamId> TracePipeline::AddMarginalStream(
    EventDatabase* db, const std::string& name,
    const std::vector<std::vector<double>>& marginals) const {
  const Timestamp T = static_cast<Timestamp>(marginals.size());
  Stream stream(db->interner().Intern("At"), {db->Sym(name)}, 1, T,
                /*markovian=*/false);
  // Domain index for location i is i + 1 (0 is bottom).
  for (const Location& loc : floorplan_->locations()) {
    stream.InternTuple({db->Sym(loc.name)});
  }
  for (Timestamp t = 1; t <= T; ++t) {
    std::vector<double> dist(stream.domain_size(), 0.0);
    for (size_t i = 0; i < marginals[t - 1].size(); ++i) {
      dist[i + 1] = marginals[t - 1][i];
    }
    double total = Sum(dist);
    dist[kBottom] = total < 1.0 ? 1.0 - total : 0.0;
    LAHAR_RETURN_NOT_OK(stream.SetMarginal(t, std::move(dist)));
  }
  return db->AddStream(std::move(stream));
}

Result<StreamId> TracePipeline::AddFilteredStream(EventDatabase* db,
                                                  const TagTrace& tag,
                                                  Rng* rng) const {
  Likelihoods likelihoods = sensor_.LikelihoodTrace(
      {tag.readings.begin() + 1, tag.readings.end()});
  std::vector<std::vector<double>> marginals = RunParticleFilter(
      model_, likelihoods, config_.num_particles, rng->Split());
  return AddMarginalStream(db, tag.name, marginals);
}

Result<StreamId> TracePipeline::AddExactFilteredStream(
    EventDatabase* db, const TagTrace& tag) const {
  Likelihoods likelihoods = sensor_.LikelihoodTrace(
      {tag.readings.begin() + 1, tag.readings.end()});
  LAHAR_ASSIGN_OR_RETURN(std::vector<std::vector<double>> marginals,
                         model_.Filter(likelihoods));
  return AddMarginalStream(db, tag.name, marginals);
}

Result<StreamId> TracePipeline::AddSmoothedIndependentStream(
    EventDatabase* db, const TagTrace& tag) const {
  Likelihoods likelihoods = sensor_.LikelihoodTrace(
      {tag.readings.begin() + 1, tag.readings.end()});
  LAHAR_ASSIGN_OR_RETURN(DiscreteHmm::Smoothed smoothed,
                         model_.Smooth(likelihoods));
  return AddMarginalStream(db, tag.name, smoothed.marginals);
}

Result<StreamId> TracePipeline::AddSmoothedStream(EventDatabase* db,
                                                  const TagTrace& tag) const {
  Likelihoods likelihoods = sensor_.LikelihoodTrace(
      {tag.readings.begin() + 1, tag.readings.end()});
  LAHAR_ASSIGN_OR_RETURN(DiscreteHmm::Smoothed smoothed,
                         model_.Smooth(likelihoods));
  const Timestamp T = static_cast<Timestamp>(smoothed.marginals.size());
  Stream stream(db->interner().Intern("At"), {db->Sym(tag.name)}, 1, T,
                /*markovian=*/true);
  for (const Location& loc : floorplan_->locations()) {
    stream.InternTuple({db->Sym(loc.name)});
  }
  const size_t D = stream.domain_size();  // locations + bottom
  {
    std::vector<double> init(D, 0.0);
    for (size_t i = 0; i < smoothed.marginals[0].size(); ++i) {
      init[i + 1] = smoothed.marginals[0][i];
    }
    double total = Sum(init);
    init[kBottom] = total < 1.0 ? 1.0 - total : 0.0;
    LAHAR_RETURN_NOT_OK(stream.SetInitial(std::move(init)));
  }
  for (Timestamp t = 1; t < T; ++t) {
    const Matrix& src = smoothed.cpts[t - 1];
    Matrix cpt(D, D, 0.0);
    cpt.At(kBottom, kBottom) = 1.0;  // absent keys stay absent
    for (size_t i = 0; i < src.rows(); ++i) {
      for (size_t j = 0; j < src.cols(); ++j) {
        cpt.At(i + 1, j + 1) = src.At(i, j);
      }
    }
    LAHAR_RETURN_NOT_OK(stream.SetCpt(t, std::move(cpt)));
  }
  LAHAR_RETURN_NOT_OK(stream.FinalizeMarkov());
  return db->AddStream(std::move(stream));
}

Result<StreamId> TracePipeline::AddTruthStream(EventDatabase* db,
                                               const TagTrace& tag) const {
  const Timestamp T = static_cast<Timestamp>(tag.true_path.size()) - 1;
  Stream stream(db->interner().Intern("At"), {db->Sym(tag.name)}, 1, T,
                /*markovian=*/false);
  for (const Location& loc : floorplan_->locations()) {
    stream.InternTuple({db->Sym(loc.name)});
  }
  for (Timestamp t = 1; t <= T; ++t) {
    std::vector<double> dist(stream.domain_size(), 0.0);
    dist[tag.true_path[t] + 1] = 1.0;
    LAHAR_RETURN_NOT_OK(stream.SetMarginal(t, std::move(dist)));
  }
  return db->AddStream(std::move(stream));
}

}  // namespace lahar
