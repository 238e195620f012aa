// Schema checks (robustness lane): the files under schemas/ are embedded
// verbatim and every one loads under the validator's keyword rules; the
// checked-in corpus under tests/schema_corpus/ gets the verdict its file
// name promises (tests/schema_corpus/reference_check.py holds the python
// jsonschema reference to the same verdicts).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.h"
#include "base/obs/schema.h"
#include "base/store/fs_util.h"

namespace fstg {
namespace {

std::string read(const std::string& path) {
  std::string text, error;
  EXPECT_TRUE(store::read_file(path, &text, &error)) << error;
  return text;
}

TEST(Schema, EveryFileUnderSchemasIsEmbeddedVerbatimAndLoads) {
  std::vector<std::string> files;
  for (const std::string& name : store::list_dir(FSTG_SCHEMAS_DIR))
    if (name.ends_with(".schema.json")) files.push_back(name);
  const auto& embedded = obs::embedded_schemas();
  ASSERT_EQ(embedded.size(), files.size());
  for (const auto& [name, text] : embedded) {
    EXPECT_EQ(text, read(std::string(FSTG_SCHEMAS_DIR) + "/" + name +
                         ".schema.json"))
        << name;
    std::string error;
    EXPECT_TRUE(obs::load_schema(text, &error)) << name << ": " << error;
    // Every format has required members, so an empty object fails cleanly.
    EXPECT_FALSE(obs::check_json(name, "{}", nullptr, &error)) << name;
  }
  EXPECT_THROW(obs::check_json("fstg_nonexistent", "{}", nullptr, nullptr),
               Error);
}

TEST(Schema, UnknownKeywordIsALoadError) {
  std::string error;
  EXPECT_TRUE(obs::load_schema(
      R"({"$schema": "s", "$id": "i", "title": "t", "description": "d",
          "examples": [1], "type": "object", "required": ["a"],
          "properties": {"a": {"enum": [1, "x"], "minimum": 0,
                               "maximum": 2}},
          "if": {"properties": {"a": {"const": 1}}},
          "then": {"required": ["b"]}})",
      &error))
      << error;
  EXPECT_FALSE(obs::load_schema(
      R"({"type": "object", "additionalProperties": false})", &error));
  EXPECT_NE(error.find("additionalProperties"), std::string::npos) << error;
  EXPECT_FALSE(obs::load_schema(
      R"({"properties": {"a": {"items": {"minLength": 1}}}})", &error));
  EXPECT_NE(error.find("/properties/a/items/minLength"), std::string::npos)
      << error;
  EXPECT_FALSE(obs::load_schema(R"({"type": "integr"})", &error));
  EXPECT_FALSE(obs::load_schema(R"({"pattern": "(unclosed"})", &error));
  EXPECT_FALSE(obs::load_schema(R"({"minItems": -1})", &error));
  EXPECT_FALSE(obs::load_schema(R"({"const": {"a": 1}})", &error));
  EXPECT_FALSE(obs::load_schema(R"([])", &error));
}

TEST(SchemaCorpus, EveryDocumentGetsTheVerdictItsNameStates) {
  // <schema>.<valid|invalid>.<what>.json
  int valid = 0, invalid = 0;
  for (const std::string& name : store::list_dir(FSTG_SCHEMA_CORPUS_DIR)) {
    if (!name.ends_with(".json")) continue;
    const std::size_t dot = name.find('.');
    const std::string schema = name.substr(0, dot);
    const std::string verdict = name.substr(dot + 1, name.find('.', dot + 1) -
                                                         dot - 1);
    ASSERT_TRUE(verdict == "valid" || verdict == "invalid") << name;
    std::string error;
    const bool ok = obs::check_json(
        schema, read(std::string(FSTG_SCHEMA_CORPUS_DIR) + "/" + name),
        nullptr, &error);
    EXPECT_EQ(ok, verdict == "valid") << name << ": " << error;
    ++(ok ? valid : invalid);
  }
  EXPECT_EQ(valid, static_cast<int>(obs::embedded_schemas().size()));
  EXPECT_GE(invalid, 7);
}

}  // namespace
}  // namespace fstg
