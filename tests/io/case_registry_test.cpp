#include "io/case_registry.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "io/matpower.hpp"

namespace mtdgrid::io {
namespace {

TEST(CaseRegistryTest, KnowsEveryBundledCase) {
  const CaseRegistry& reg = CaseRegistry::global();
  for (const char* name :
       {"case4", "wscc9", "case14", "ieee30", "case57", "case118",
        "case300", "case118x9", "case300x17"})
    EXPECT_TRUE(reg.knows(name)) << name;
  for (const char* alias : {"ieee14", "ieee57", "ieee118", "case30"})
    EXPECT_TRUE(reg.knows(alias)) << alias;
  EXPECT_FALSE(reg.knows("case9999"));
  EXPECT_EQ(reg.names().size(), 9u);
}

TEST(CaseRegistryTest, LoadsByNameAndAlias) {
  EXPECT_EQ(load_case("case118").num_buses(), 118u);
  EXPECT_EQ(load_case("ieee118").num_buses(), 118u);
  EXPECT_EQ(load_case("case4").num_buses(), 4u);
  EXPECT_EQ(load_case("ieee30").num_buses(), 30u);
}

TEST(CaseRegistryTest, UnknownNameThrowsWithKnownList) {
  try {
    load_case("case9999");
    FAIL() << "expected CaseIoError";
  } catch (const CaseIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown case 'case9999'"), std::string::npos);
    // The diagnostic must list every registered canonical name AND its
    // aliases, so a near-miss shows the accepted spellings.
    for (const CaseEntry& entry : CaseRegistry::global().entries()) {
      EXPECT_NE(what.find(entry.name), std::string::npos)
          << "missing canonical name " << entry.name << " in: " << what;
      for (const std::string& alias : entry.aliases)
        EXPECT_NE(what.find(alias), std::string::npos)
            << "missing alias " << alias << " in: " << what;
    }
    EXPECT_NE(what.find("or a path to a .m file"), std::string::npos);
  }
}

TEST(CaseRegistryTest, UnknownNameMessagePinned) {
  // Pins the exact shape of the message (ISSUE 4 satellite): canonical
  // names with aliases in parentheses, comma-separated.
  try {
    load_case("bogus");
    FAIL() << "expected CaseIoError";
  } catch (const CaseIoError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown case 'bogus' (known: case4 (case4gs), wscc9 (case9), "
              "case14 (ieee14), ieee30 (case30), case57 (ieee57), "
              "case118 (ieee118), case300 (ieee300), case118x9, case300x17, "
              "a composed '<case>xN' name, or a path to a .m file)");
  }
}

TEST(CaseRegistryTest, MissingFileThrowsWithPath) {
  try {
    load_case("/nonexistent/dir/case.m");
    FAIL() << "expected CaseIoError";
  } catch (const CaseIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/case.m"),
              std::string::npos);
  }
}

TEST(CaseRegistryTest, MissingFileMessagePinnedWithStrerror) {
  // Pins the full unreadable-path diagnostic: the attempted filesystem
  // path plus the OS reason, so a misspelled path and a permission
  // problem read differently.
  try {
    load_case("/nonexistent/dir/case.m");
    FAIL() << "expected CaseIoError";
  } catch (const CaseIoError& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string("/nonexistent/dir/case.m: cannot open file (") +
                  std::strerror(ENOENT) + ")");
  }
}

TEST(CaseRegistryTest, ParseErrorsCarryFileAndLine) {
  const std::string path =
      ::testing::TempDir() + "/broken_registry_case.m";
  {
    std::ofstream out(path);
    out << "function mpc = broken\n"
        << "mpc.baseMVA = 100;\n"
        << "mpc.bus = [\n"
        << "  1 3 oops;\n"
        << "];\n";
  }
  try {
    load_case(path);
    FAIL() << "expected CaseIoError";
  } catch (const CaseIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("line 4"), std::string::npos);
    EXPECT_NE(what.find("oops"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CaseRegistryTest, LoadsFromExplicitPath) {
  const std::string path = CaseRegistry::global().data_dir() + "/case57.m";
  const grid::PowerSystem sys = load_case(path);
  EXPECT_EQ(sys.num_buses(), 57u);
  EXPECT_EQ(sys.num_branches(), 80u);
}

TEST(CaseRegistryTest, EnvironmentOverridesDataDir) {
  setenv("MTDGRID_DATA_DIR", "/tmp/mtdgrid-no-such-dir", 1);
  EXPECT_EQ(CaseRegistry::global().data_dir(), "/tmp/mtdgrid-no-such-dir");
  EXPECT_THROW(load_case("case118"), CaseIoError);
  // The small cases are data files too, so they follow the override.
  EXPECT_THROW(load_case("case4"), CaseIoError);
  unsetenv("MTDGRID_DATA_DIR");
  EXPECT_NE(CaseRegistry::global().data_dir(),
            "/tmp/mtdgrid-no-such-dir");
  EXPECT_EQ(load_case("case118").num_buses(), 118u);
}

}  // namespace
}  // namespace mtdgrid::io
