// Tests for CSV export of search results.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "io/io.hpp"
#include "perf/predictor.hpp"

namespace lens::core {
namespace {

NasResult small_search(const SearchSpace& space, const DeploymentEvaluator& evaluator) {
  const SurrogateAccuracyModel accuracy;
  NasConfig config;
  config.mobo.num_initial = 6;
  config.mobo.num_iterations = 4;
  config.mobo.pool_size = 24;
  config.mobo.seed = 4;
  NasDriver driver(space, evaluator, accuracy, config);
  return driver.run();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

class ExportTest : public ::testing::Test {
 protected:
  ExportTest()
      : sim_(perf::jetson_tx2_gpu()),
        oracle_(sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, wifi_),
        result_(small_search(space_, evaluator_)) {}

  SearchSpace space_;
  perf::DeviceSimulator sim_;
  perf::SimulatorOracle oracle_;
  comm::CommModel wifi_;
  DeploymentEvaluator evaluator_;
  NasResult result_;
};

TEST_F(ExportTest, HistoryCsvHasAllRows) {
  const std::string path = temp_path("history.csv");
  save_history_csv(result_, space_, path);
  // + header + trailing `# lens:fnv1a` integrity footer
  EXPECT_EQ(count_lines(path), result_.history.size() + 2);
  std::remove(path.c_str());
}

TEST_F(ExportTest, FrontCsvHasFrontRows) {
  const std::string path = temp_path("front.csv");
  save_front_csv(result_, space_, path);
  EXPECT_EQ(count_lines(path), result_.front.size() + 2);
  std::remove(path.c_str());
}

TEST_F(ExportTest, RowsCarryConsistentValues) {
  const std::string path = temp_path("history_check.csv");
  save_history_csv(result_, space_, path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  EXPECT_NE(line.find("error_percent"), std::string::npos);
  std::getline(in, line);  // first candidate
  std::stringstream row(line);
  std::string cell;
  std::getline(row, cell, ',');
  EXPECT_EQ(cell, "0");
  std::getline(row, cell, ',');
  EXPECT_EQ(cell, result_.history.front().name);
  std::getline(row, cell, ',');
  EXPECT_NEAR(std::stod(cell), result_.history.front().error_percent, 1e-6);
  std::remove(path.c_str());
}

TEST_F(ExportTest, FrontFlagsMatchParetoMembership) {
  const std::string path = temp_path("history_flags.csv");
  save_history_csv(result_, space_, path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::size_t flagged = 0;
  while (std::getline(in, line)) {
    // 6th column is on_front.
    std::stringstream row(line);
    std::string cell;
    for (int i = 0; i < 6; ++i) std::getline(row, cell, ',');
    if (cell == "1") ++flagged;
  }
  EXPECT_EQ(flagged, result_.front.size());
  std::remove(path.c_str());
}

TEST_F(ExportTest, GenotypeRoundTripAndResume) {
  const std::string path = temp_path("resume.csv");
  save_front_csv(result_, space_, path);
  const std::vector<Genotype> genotypes = load_genotypes_csv(space_, path);
  ASSERT_EQ(genotypes.size(), result_.front.size());
  // Order matches the front's points; every genotype decodes.
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    EXPECT_EQ(genotypes[i], result_.history[result_.front.points()[i].id].genotype);
    EXPECT_NO_THROW(space_.decode(genotypes[i]));
  }

  // Resume a search from the checkpoint: seeded candidates appear first in
  // the history with identical objective values (evaluator is deterministic).
  const SurrogateAccuracyModel accuracy;
  NasConfig config;
  config.mobo.num_initial = 8;
  config.mobo.num_iterations = 3;
  config.mobo.pool_size = 24;
  config.mobo.seed = 9;
  config.warm_start = genotypes;
  NasDriver driver(space_, evaluator_, accuracy, config);
  const NasResult resumed = driver.run();
  EXPECT_EQ(resumed.history.size(), 8u + 3u);  // seeds count toward warm-up
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    EXPECT_EQ(resumed.history[i].genotype, genotypes[i]);
  }
  std::remove(path.c_str());
}

TEST_F(ExportTest, LoadGenotypesValidation) {
  EXPECT_THROW(load_genotypes_csv(space_, "/nonexistent/x.csv"), std::runtime_error);
  const std::string path = temp_path("bad_geno.csv");
  // Footer-less file (e.g. hand-edited): checksum gate rejects it.
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW(load_genotypes_csv(space_, path), std::runtime_error);
  // Valid footer, semantically-bad payloads: parser validation still fires.
  io::atomic_write_checked(path, [](std::ostream& out) { out << "wrong,header\n"; });
  EXPECT_THROW(load_genotypes_csv(space_, path), std::invalid_argument);
  io::atomic_write_checked(path,
                           [](std::ostream& out) { out << "index,genotype\n0,not-numbers\n"; });
  EXPECT_THROW(load_genotypes_csv(space_, path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST_F(ExportTest, BadPathThrows) {
  EXPECT_THROW(save_history_csv(result_, space_, "/nonexistent-dir/x.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace lens::core
