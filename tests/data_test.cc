#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "data/datasets.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/planted.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------- generator

TEST(GeneratorTest, WalkRejectsBadCount) {
  Rng rng(1);
  WalkParams params;
  EXPECT_FALSE(GenerateWalk(params, 0, 0.0, &rng).ok());
}

TEST(GeneratorTest, WalkProducesRequestedLengthWithTimestamps) {
  Rng rng(2);
  WalkParams params;
  const Trajectory t = GenerateWalk(params, 200, 100.0, &rng).value();
  EXPECT_EQ(t.size(), 200);
  ASSERT_TRUE(t.has_timestamps());
  EXPECT_DOUBLE_EQ(t.timestamp(0), 100.0);
  for (Index i = 1; i < t.size(); ++i) {
    EXPECT_GT(t.timestamp(i), t.timestamp(i - 1));
  }
}

TEST(GeneratorTest, WalkIsDeterministicGivenSeed) {
  WalkParams params;
  Rng rng1(7);
  Rng rng2(7);
  const Trajectory a = GenerateWalk(params, 50, 0.0, &rng1).value();
  const Trajectory b = GenerateWalk(params, 50, 0.0, &rng2).value();
  for (Index i = 0; i < 50; ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_DOUBLE_EQ(a.timestamp(i), b.timestamp(i));
  }
}

TEST(GeneratorTest, WalkStepSizesMatchSpeedScale) {
  WalkParams params;
  params.mean_speed_mps = 2.0;
  params.base_period_s = 10.0;
  params.dropout_probability = 0.0;
  params.period_jitter = 0.0;
  params.speed_jitter = 0.0;
  params.gps_noise_m = 0.0;
  Rng rng(3);
  const Trajectory t = GenerateWalk(params, 100, 0.0, &rng).value();
  for (Index i = 1; i < t.size(); ++i) {
    const double d = GreatCircleDistanceMeters(t[i - 1], t[i]);
    EXPECT_NEAR(d, 20.0, 1.0) << "step " << i;  // 2 m/s * 10 s
  }
}

TEST(GeneratorTest, DropoutCreatesTimeGaps) {
  WalkParams params;
  params.dropout_probability = 0.3;
  params.dropout_max_run = 4;
  params.period_jitter = 0.0;
  Rng rng(4);
  const Trajectory t = GenerateWalk(params, 300, 0.0, &rng).value();
  int gaps = 0;
  for (Index i = 1; i < t.size(); ++i) {
    if (t.timestamp(i) - t.timestamp(i - 1) > 1.5 * params.base_period_s) {
      ++gaps;
    }
  }
  EXPECT_GT(gaps, 10) << "expected missing-sample gaps";
}

TEST(GeneratorTest, FollowRouteReachesLastWaypoint) {
  WalkParams params;
  params.mean_speed_mps = 10.0;
  params.turn_stddev_rad = 0.02;
  Rng rng(5);
  Route route = {Point(0, 0), Point(500, 0), Point(500, 500)};
  const Trajectory t =
      FollowRoute(params, route, 30.0, 5000, 0.0, &rng).value();
  ASSERT_GT(t.size(), 5);
  const Point end_m = MetersFromOrigin(params.origin, t[t.size() - 1]);
  EXPECT_NEAR(end_m.x, 500.0, 120.0);
  EXPECT_NEAR(end_m.y, 500.0, 120.0);
}

TEST(GeneratorTest, FollowRouteRejectsEmptyRoute) {
  WalkParams params;
  Rng rng(6);
  EXPECT_FALSE(FollowRoute(params, {}, 10.0, 100, 0.0, &rng).ok());
}

TEST(GeneratorTest, RandomRouteRespectsGridSnap) {
  Rng rng(8);
  const Route route = MakeRandomRoute(12, 1000.0, 250.0, &rng);
  ASSERT_EQ(route.size(), 12u);
  for (std::size_t k = 1; k < route.size(); ++k) {
    EXPECT_NEAR(std::fmod(std::abs(route[k].x), 250.0), 0.0, 1e-6);
    EXPECT_NEAR(std::fmod(std::abs(route[k].y), 250.0), 0.0, 1e-6);
  }
}

// ----------------------------------------------------------------- datasets

TEST(DatasetsTest, NamesAreStable) {
  EXPECT_EQ(DatasetName(DatasetKind::kGeoLifeLike), "GeoLife-like");
  EXPECT_EQ(DatasetName(DatasetKind::kTruckLike), "Truck-like");
  EXPECT_EQ(DatasetName(DatasetKind::kBaboonLike), "Wild-Baboon-like");
}

TEST(DatasetsTest, RejectsNonPositiveLength) {
  DatasetOptions options;
  options.length = 0;
  EXPECT_FALSE(MakeDataset(DatasetKind::kGeoLifeLike, options).ok());
}

class DatasetKindTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(DatasetKindTest, ProducesExactLengthAndValidData) {
  DatasetOptions options;
  options.length = 700;
  options.seed = 99;
  const Trajectory t = MakeDataset(GetParam(), options).value();
  EXPECT_EQ(t.size(), 700);
  ASSERT_TRUE(t.has_timestamps());
  for (Index i = 0; i < t.size(); ++i) {
    EXPECT_TRUE(t[i].IsFinite());
    if (i > 0) {
      EXPECT_GT(t.timestamp(i), t.timestamp(i - 1));
    }
  }
}

TEST_P(DatasetKindTest, DeterministicGivenSeed) {
  DatasetOptions options;
  options.length = 300;
  options.seed = 5;
  const Trajectory a = MakeDataset(GetParam(), options).value();
  const Trajectory b = MakeDataset(GetParam(), options).value();
  for (Index i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_P(DatasetKindTest, DifferentSeedsDiffer) {
  DatasetOptions a_options;
  a_options.length = 200;
  a_options.seed = 1;
  DatasetOptions b_options = a_options;
  b_options.seed = 2;
  const Trajectory a = MakeDataset(GetParam(), a_options).value();
  const Trajectory b = MakeDataset(GetParam(), b_options).value();
  bool any_difference = false;
  for (Index i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = !(a[i] == b[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST_P(DatasetKindTest, StaysWithinMetropolitanExtent) {
  DatasetOptions options;
  options.length = 1000;
  const Trajectory t = MakeDataset(GetParam(), options).value();
  for (Index i = 1; i < t.size(); ++i) {
    EXPECT_LT(GreatCircleDistanceMeters(t[0], t[i]), 100000.0)
        << "point " << i << " left the metro area";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DatasetKindTest,
                         ::testing::ValuesIn(kAllDatasetKinds));

TEST(DatasetsTest, SamplingPeriodsAreNonUniform) {
  DatasetOptions options;
  options.length = 500;
  const Trajectory t =
      MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  double min_dt = 1e18;
  double max_dt = 0.0;
  for (Index i = 1; i < t.size(); ++i) {
    const double dt = t.timestamp(i) - t.timestamp(i - 1);
    min_dt = std::min(min_dt, dt);
    max_dt = std::max(max_dt, dt);
  }
  EXPECT_GT(max_dt / min_dt, 2.0) << "GeoLife-like sampling should vary";
}

// ------------------------------------------------------------------ planted

TEST(PlantedTest, ValidatesArguments) {
  DatasetOptions options;
  options.length = 200;
  const Trajectory base =
      MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  EXPECT_FALSE(PlantMotif(base, 0, 0, 10, 5.0, 1).ok());
  EXPECT_FALSE(PlantMotif(base, 150, 100, 10, 5.0, 1).ok());  // overruns
  EXPECT_FALSE(PlantMotif(base, 10, 20, 10, -1.0, 1).ok());
}

TEST(PlantedTest, LayoutIsOriginalBridgeCopy) {
  DatasetOptions options;
  options.length = 150;
  const Trajectory base =
      MakeDataset(DatasetKind::kTruckLike, options).value();
  const PlantedMotif planted =
      PlantMotif(base, 20, 30, 15, 8.0, 7).value();
  EXPECT_EQ(planted.original.first, 20);
  EXPECT_EQ(planted.original.last, 49);
  EXPECT_EQ(planted.copy.first, 150 + 15);
  EXPECT_EQ(planted.copy.last, 150 + 15 + 29);
  EXPECT_EQ(planted.trajectory.size(), 150 + 15 + 30);
  EXPECT_TRUE(planted.trajectory.has_timestamps());
}

TEST(PlantedTest, CopyPointsStayWithinNoiseRadius) {
  DatasetOptions options;
  options.length = 120;
  const Trajectory base =
      MakeDataset(DatasetKind::kBaboonLike, options).value();
  const double noise = 4.0;
  const PlantedMotif planted =
      PlantMotif(base, 10, 25, 10, noise, 3).value();
  for (Index k = 0; k < 25; ++k) {
    const double d = GreatCircleDistanceMeters(
        planted.trajectory[planted.original.first + k],
        planted.trajectory[planted.copy.first + k]);
    EXPECT_LE(d, planted.dfd_upper_bound_m) << "offset " << k;
  }
}

// ----------------------------------------------------------------------- io

TEST(IoTest, CsvRoundTripWithTimestamps) {
  DatasetOptions options;
  options.length = 80;
  const Trajectory t =
      MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const Trajectory back = ReadCsv(path).value();
  ASSERT_EQ(back.size(), t.size());
  ASSERT_TRUE(back.has_timestamps());
  for (Index i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(back[i].lat(), t[i].lat(), 1e-7);
    EXPECT_NEAR(back[i].lon(), t[i].lon(), 1e-7);
    EXPECT_NEAR(back.timestamp(i), t.timestamp(i), 1e-2);
  }
  std::remove(path.c_str());
}

TEST(IoTest, CsvRoundTripWithoutTimestamps) {
  Trajectory t({LatLon(1.5, 2.5), LatLon(3.5, 4.5)});
  const std::string path = TempPath("plain.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const Trajectory back = ReadCsv(path).value();
  ASSERT_EQ(back.size(), 2);
  EXPECT_FALSE(back.has_timestamps());
  std::remove(path.c_str());
}

TEST(IoTest, CrlfCsvParsesIdenticallyToLfTwin) {
  // Windows-authored file: CRLF line endings, a blank CRLF line in the
  // middle and a trailing one — both used to be fatal ("malformed CSV
  // row"), and the \r previously leaked into the last field.
  const std::string lf_path = TempPath("unix.csv");
  const std::string crlf_path = TempPath("windows.csv");
  {
    FILE* f = fopen(lf_path.c_str(), "w");
    fputs("lat,lon,timestamp\n39.9,116.3,100.5\n\n39.95,116.35,101.5\n\n",
          f);
    fclose(f);
    f = fopen(crlf_path.c_str(), "w");
    fputs(
        "lat,lon,timestamp\r\n39.9,116.3,100.5\r\n\r\n"
        "39.95,116.35,101.5\r\n\r\n",
        f);
    fclose(f);
  }
  const Trajectory lf = ReadCsv(lf_path).value();
  StatusOr<Trajectory> crlf = ReadCsv(crlf_path);
  ASSERT_TRUE(crlf.ok()) << crlf.status();
  ASSERT_EQ(lf.size(), crlf.value().size());
  for (Index i = 0; i < lf.size(); ++i) {
    EXPECT_EQ(lf[i].lat(), crlf.value()[i].lat());
    EXPECT_EQ(lf[i].lon(), crlf.value()[i].lon());
    EXPECT_EQ(lf.timestamp(i), crlf.value().timestamp(i));
  }
  std::remove(lf_path.c_str());
  std::remove(crlf_path.c_str());
}

TEST(IoTest, CrlfPltParsesIdenticallyToLfTwin) {
  DatasetOptions options;
  options.length = 20;
  const Trajectory t = MakeDataset(DatasetKind::kTruckLike, options).value();
  const std::string lf_path = TempPath("unix.plt");
  ASSERT_TRUE(WritePlt(t, lf_path).ok());
  // Re-author the same file with CRLF endings.
  std::string content;
  {
    FILE* f = fopen(lf_path.c_str(), "r");
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
    fclose(f);
  }
  std::string crlf_content;
  for (char c : content) {
    if (c == '\n') crlf_content += '\r';
    crlf_content += c;
  }
  const std::string crlf_path = TempPath("windows.plt");
  {
    FILE* f = fopen(crlf_path.c_str(), "w");
    fwrite(crlf_content.data(), 1, crlf_content.size(), f);
    fclose(f);
  }
  const Trajectory lf = ReadPlt(lf_path).value();
  StatusOr<Trajectory> crlf = ReadPlt(crlf_path);
  ASSERT_TRUE(crlf.ok()) << crlf.status();
  ASSERT_EQ(lf.size(), crlf.value().size());
  for (Index i = 0; i < lf.size(); ++i) {
    EXPECT_EQ(lf[i].lat(), crlf.value()[i].lat());
    EXPECT_EQ(lf.timestamp(i), crlf.value().timestamp(i));
  }
  std::remove(lf_path.c_str());
  std::remove(crlf_path.c_str());
}

TEST(IoTest, ParseCsvPointRowClassifiesLines) {
  double lat = 0.0;
  double lon = 0.0;
  double ts = 0.0;
  bool has_ts = false;
  EXPECT_EQ(CsvRow::kBlank, ParseCsvPointRow("", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(CsvRow::kBlank, ParseCsvPointRow("\r", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(CsvRow::kBlank,
            ParseCsvPointRow("   ", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(CsvRow::kMalformed,
            ParseCsvPointRow("lat,lon", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(CsvRow::kMalformedTimestamp,
            ParseCsvPointRow("1.5,2.5,zebra", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(CsvRow::kPoint,
            ParseCsvPointRow("1.5, 2.5\r", &lat, &lon, &ts, &has_ts));
  EXPECT_EQ(1.5, lat);
  EXPECT_EQ(2.5, lon);
  EXPECT_FALSE(has_ts);
  EXPECT_EQ(CsvRow::kPoint,
            ParseCsvPointRow("1.5,2.5,99.25\r", &lat, &lon, &ts, &has_ts));
  ASSERT_TRUE(has_ts);
  EXPECT_EQ(99.25, ts);
}

TEST(IoTest, FromStringParsersMatchFileReaders) {
  // The *FromString entry points are the byte-level primitives behind
  // the file readers (and the surface the fuzz harnesses drive); both
  // routes must produce the same trajectory.
  const std::string csv = "lat,lon,timestamp\n1.5,2.5,0.0\n1.6,2.6,1.0\n";
  StatusOr<Trajectory> from_string = ReadCsvFromString(csv);
  ASSERT_TRUE(from_string.ok()) << from_string.status();
  EXPECT_EQ(from_string.value().size(), 2);
  EXPECT_TRUE(from_string.value().has_timestamps());

  const std::string path = TempPath("from_string.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs(csv.c_str(), f);
    fclose(f);
  }
  StatusOr<Trajectory> from_file = ReadCsv(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  ASSERT_EQ(from_file.value().size(), from_string.value().size());
  for (Index i = 0; i < from_file.value().size(); ++i) {
    EXPECT_EQ(from_file.value()[i].lat(), from_string.value()[i].lat());
    EXPECT_EQ(from_file.value()[i].lon(), from_string.value()[i].lon());
  }
  std::remove(path.c_str());

  StatusOr<Trajectory> geojson = ReadGeoJsonFromString(
      "{\"coordinates\":[[2.5,1.5],[2.6,1.6]]}");
  ASSERT_TRUE(geojson.ok()) << geojson.status();
  EXPECT_EQ(geojson.value().size(), 2);

  StatusOr<Trajectory> plt = ReadPltFromString(
      "a\nb\nc\nd\ne\nf\n1.5,2.5,0,0,39448.5,1899-12-30,12:00:00\n");
  ASSERT_TRUE(plt.ok()) << plt.status();
  EXPECT_EQ(plt.value().size(), 1);
  EXPECT_TRUE(plt.value().has_timestamps());
}

TEST(IoTest, FromStringErrorsNameTheOrigin) {
  StatusOr<Trajectory> r = ReadCsvFromString("1.0,2.0\nnot,numbers\n",
                                             "wire-input");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("wire-input"), std::string::npos);
  // The default origin marks the bytes as non-file input.
  StatusOr<Trajectory> d = ReadCsvFromString("");
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.status().message().find("<memory>"), std::string::npos);
}

TEST(IoTest, ReadMissingFileIsIoError) {
  StatusOr<Trajectory> r = ReadCsv("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, ReadMalformedCsvIsInvalidArgument) {
  const std::string path = TempPath("bad.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("lat,lon\n1.0,2.0\nnot,numbers\n", f);
    fclose(f);
  }
  StatusOr<Trajectory> r = ReadCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  // A non-finite timestamp is its own error, on the last row too.
  for (const char* csv : {"lat,lon,timestamp\n1.5,2.5,0\n1.6,2.6,inf\n",
                          "lat,lon,timestamp\n1.5,2.5,nan\n1.6,2.6,1\n"}) {
    r = ReadCsvFromString(csv);
    ASSERT_FALSE(r.ok()) << csv;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("non-finite timestamp"),
              std::string::npos)
        << r.status();
  }
}

TEST(IoTest, PltRoundTrip) {
  DatasetOptions options;
  options.length = 40;
  const Trajectory t =
      MakeDataset(DatasetKind::kTruckLike, options).value();
  const std::string path = TempPath("roundtrip.plt");
  ASSERT_TRUE(WritePlt(t, path).ok());
  const Trajectory back = ReadPlt(path).value();
  ASSERT_EQ(back.size(), t.size());
  for (Index i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(back[i].lat(), t[i].lat(), 1e-7);
    EXPECT_NEAR(back[i].lon(), t[i].lon(), 1e-7);
    EXPECT_NEAR(back.timestamp(i), t.timestamp(i), 0.5);
  }
  std::remove(path.c_str());
}

TEST(IoTest, PltRequiresTimestamps) {
  Trajectory t({LatLon(1, 2)});
  EXPECT_FALSE(WritePlt(t, TempPath("x.plt")).ok());
}

TEST(IoTest, GeoJsonRoundTripWithTimestamps) {
  DatasetOptions options;
  options.length = 60;
  const Trajectory t =
      MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  const std::string path = TempPath("roundtrip.geojson");
  ASSERT_TRUE(WriteGeoJson(t, path).ok());
  const Trajectory back = ReadGeoJson(path).value();
  ASSERT_EQ(back.size(), t.size());
  ASSERT_TRUE(back.has_timestamps());
  for (Index i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(back[i].lat(), t[i].lat(), 1e-7);
    EXPECT_NEAR(back[i].lon(), t[i].lon(), 1e-7);
    EXPECT_NEAR(back.timestamp(i), t.timestamp(i), 1e-3);
  }
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonPreservesSubSecondEpochTimestamps) {
  // Regression: %g-style shortest rendering truncated GeoLife-era epoch
  // seconds (~3.4e9) to whole seconds, making sub-second trajectories
  // unreadable after a GeoJSON round-trip (non-ascending timestamps).
  Trajectory t({LatLon(39.9, 116.4), LatLon(39.91, 116.41),
                LatLon(39.92, 116.42)},
               {3400000000.1, 3400000000.6, 3400000001.2});
  const std::string path = TempPath("epoch.geojson");
  ASSERT_TRUE(WriteGeoJson(t, path).ok());
  const Trajectory back = ReadGeoJson(path).value();
  ASSERT_EQ(back.size(), 3);
  ASSERT_TRUE(back.has_timestamps());
  for (Index i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(back.timestamp(i), t.timestamp(i), 1e-3) << i;
  }
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonRoundTripWithoutTimestamps) {
  Trajectory t({LatLon(39.9, 116.4), LatLon(39.91, 116.41)});
  const std::string path = TempPath("plain.geojson");
  ASSERT_TRUE(WriteGeoJson(t, path).ok());
  const Trajectory back = ReadGeoJson(path).value();
  ASSERT_EQ(back.size(), 2);
  EXPECT_FALSE(back.has_timestamps());
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonReadsForeignLineString) {
  // A hand-written document (bare geometry, lon-first positions with an
  // altitude, arbitrary whitespace) — not something WriteGeoJson emits.
  const std::string path = TempPath("foreign.geojson");
  {
    std::ofstream out(path);
    out << "{ \"type\": \"LineString\",\n"
           "  \"coordinates\": [ [116.40, 39.90, 55.0],\n"
           "                     [116.41,39.91], [ 116.42 , 39.92 ] ] }";
  }
  const Trajectory back = ReadGeoJson(path).value();
  ASSERT_EQ(back.size(), 3);
  EXPECT_NEAR(back[0].lat(), 39.90, 1e-9);
  EXPECT_NEAR(back[0].lon(), 116.40, 1e-9);
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonWithoutCoordinatesIsInvalidArgument) {
  const std::string path = TempPath("nocoords.geojson");
  {
    std::ofstream out(path);
    out << "{\"type\": \"Feature\", \"properties\": {}}";
  }
  StatusOr<Trajectory> r = ReadGeoJson(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonRejectsMultiLineStringNesting) {
  const std::string path = TempPath("multi.geojson");
  {
    std::ofstream out(path);
    out << "{\"type\": \"MultiLineString\", \"coordinates\": "
           "[[[116.4, 39.9], [116.5, 39.8]]]}";
  }
  StatusOr<Trajectory> r = ReadGeoJson(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonMismatchedTimesIsInvalidArgument) {
  const std::string path = TempPath("badtimes.geojson");
  {
    std::ofstream out(path);
    out << "{\"properties\": {\"times\": [0.0]}, \"geometry\": "
           "{\"type\": \"LineString\", \"coordinates\": "
           "[[116.4, 39.9], [116.5, 39.8]]}}";
  }
  StatusOr<Trajectory> r = ReadGeoJson(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, GeoJsonReadMissingFileIsIoError) {
  StatusOr<Trajectory> r = ReadGeoJson("/nonexistent/missing.geojson");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace frechet_motif
