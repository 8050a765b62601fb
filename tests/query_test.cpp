// Unit tests for the query language (the EOL substitute).
#include <gtest/gtest.h>

#include "decisive/base/error.hpp"
#include "decisive/query/query.hpp"

using namespace decisive;
using namespace decisive::query;

namespace {

Value run(const std::string& source) {
  Env env;
  return eval(source, env);
}

double num(const std::string& source) { return run(source).as_number(); }
bool boolean(const std::string& source) { return run(source).as_bool(); }

/// A simple host object exposing two properties.
class Point final : public ObjectRef {
 public:
  Point(double x, double y) : x_(x), y_(y) {}
  [[nodiscard]] Value property(std::string_view name) const override {
    if (name == "x") return Value(x_);
    if (name == "y") return Value(y_);
    throw QueryError("no property");
  }
  [[nodiscard]] bool has_property(std::string_view name) const override {
    return name == "x" || name == "y";
  }
  [[nodiscard]] std::string type_name() const override { return "Point"; }

 private:
  double x_, y_;
};

}  // namespace

// --------------------------------------------------------------- literals --

TEST(Query, Literals) {
  EXPECT_DOUBLE_EQ(num("42"), 42.0);
  EXPECT_DOUBLE_EQ(num("3.5e2"), 350.0);
  EXPECT_EQ(run("'hi'").as_string(), "hi");
  EXPECT_EQ(run("\"double\"").as_string(), "double");
  EXPECT_TRUE(boolean("true"));
  EXPECT_FALSE(boolean("false"));
  EXPECT_TRUE(run("null").is_null());
}

TEST(Query, SequenceLiteral) {
  const auto v = run("Sequence{1, 2, 3}");
  ASSERT_TRUE(v.is_collection());
  EXPECT_EQ(v.as_collection().size(), 3u);
  EXPECT_TRUE(run("Sequence{}").as_collection().empty());
}

// ------------------------------------------------------------- arithmetic --

TEST(Query, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(num("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(num("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(num("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(num("7 % 3"), 1.0);
  EXPECT_DOUBLE_EQ(num("-3 + 1"), -2.0);
  EXPECT_DOUBLE_EQ(num("2 - -2"), 4.0);
}

TEST(Query, DivisionByZeroThrows) {
  EXPECT_THROW(run("1 / 0"), QueryError);
  EXPECT_THROW(run("1 % 0"), QueryError);
}

TEST(Query, StringConcatenation) {
  EXPECT_EQ(run("'a' + 'b'").as_string(), "ab");
  EXPECT_EQ(run("'n=' + 3").as_string(), "n=3");
}

// -------------------------------------------------------------- comparison --

TEST(Query, Comparisons) {
  EXPECT_TRUE(boolean("1 < 2"));
  EXPECT_TRUE(boolean("2 <= 2"));
  EXPECT_FALSE(boolean("1 > 2"));
  EXPECT_TRUE(boolean("3 >= 2"));
  EXPECT_TRUE(boolean("2 == 2"));
  EXPECT_TRUE(boolean("2 != 3"));
  EXPECT_TRUE(boolean("2 <> 3"));
  EXPECT_TRUE(boolean("'a' < 'b'"));
  EXPECT_TRUE(boolean("'x' == 'x'"));
}

TEST(Query, EolStyleSingleEqualsIsEquality) {
  EXPECT_TRUE(boolean("2 = 2"));
  EXPECT_FALSE(boolean("'a' = 'b'"));
}

TEST(Query, OrderingMixedTypesThrows) {
  EXPECT_THROW(run("1 < 'a'"), QueryError);
}

// ------------------------------------------------------------------ logic --

TEST(Query, BooleanOperators) {
  EXPECT_TRUE(boolean("true and true"));
  EXPECT_FALSE(boolean("true and false"));
  EXPECT_TRUE(boolean("false or true"));
  EXPECT_TRUE(boolean("not false"));
  EXPECT_TRUE(boolean("false implies true"));
  EXPECT_TRUE(boolean("false implies false"));
  EXPECT_FALSE(boolean("true implies false"));
}

TEST(Query, Ternary) {
  EXPECT_DOUBLE_EQ(num("1 < 2 ? 10 : 20"), 10.0);
  EXPECT_DOUBLE_EQ(num("1 > 2 ? 10 : 20"), 20.0);
  EXPECT_EQ(run("true ? 'yes' : 'no'").as_string(), "yes");
}

TEST(Query, NonBooleanConditionThrows) { EXPECT_THROW(run("1 ? 2 : 3"), QueryError); }

// -------------------------------------------------------------- variables --

TEST(Query, VarBindingsAndReturn) {
  EXPECT_DOUBLE_EQ(num("var x = 2; var y = x * 3; return x + y;"), 8.0);
  EXPECT_DOUBLE_EQ(num("var x = 1; x"), 1.0);
}

TEST(Query, UnknownVariableThrows) { EXPECT_THROW(run("nope"), QueryError); }

TEST(Query, EnvironmentVariables) {
  Env env;
  env.set("fit", Value(10.0));
  EXPECT_DOUBLE_EQ(eval("fit * 2", env).as_number(), 20.0);
}

// -------------------------------------------------------------- functions --

TEST(Query, BuiltinFunctions) {
  EXPECT_DOUBLE_EQ(num("abs(-3)"), 3.0);
  EXPECT_DOUBLE_EQ(num("sqrt(9)"), 3.0);
  EXPECT_DOUBLE_EQ(num("pow(2, 10)"), 1024.0);
  EXPECT_DOUBLE_EQ(num("min(2, 3)"), 2.0);
  EXPECT_DOUBLE_EQ(num("max(2, 3)"), 3.0);
  EXPECT_DOUBLE_EQ(num("round(2.5)"), 3.0);
}

TEST(Query, HostFunctions) {
  Env env;
  env.define_function("twice", [](const std::vector<Value>& args) {
    return Value(args.at(0).as_number() * 2.0);
  });
  EXPECT_DOUBLE_EQ(eval("twice(21)", env).as_number(), 42.0);
}

TEST(Query, UnknownFunctionThrows) { EXPECT_THROW(run("nope(1)"), QueryError); }

// ------------------------------------------------------------- collections --

TEST(Query, SelectRejectCollect) {
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3,4}.select(x | x > 2).size()"), 2.0);
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3,4}.reject(x | x > 2).size()"), 2.0);
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3}.collect(x | x * x).sum()"), 14.0);
}

TEST(Query, Aggregations) {
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3}.sum()"), 6.0);
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3}.avg()"), 2.0);
  EXPECT_DOUBLE_EQ(num("Sequence{3,1,2}.min()"), 1.0);
  EXPECT_DOUBLE_EQ(num("Sequence{3,1,2}.max()"), 3.0);
  EXPECT_DOUBLE_EQ(num("Sequence{}.size()"), 0.0);
}

TEST(Query, Quantifiers) {
  EXPECT_TRUE(boolean("Sequence{1,2,3}.exists(x | x == 2)"));
  EXPECT_FALSE(boolean("Sequence{1,2,3}.exists(x | x == 9)"));
  EXPECT_TRUE(boolean("Sequence{1,2,3}.forAll(x | x > 0)"));
  EXPECT_FALSE(boolean("Sequence{1,2,3}.forAll(x | x > 1)"));
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,3,4}.count(x | x % 2 == 0)"), 2.0);
}

TEST(Query, AccessorsAndMembership) {
  EXPECT_DOUBLE_EQ(num("Sequence{5,6}.first()"), 5.0);
  EXPECT_DOUBLE_EQ(num("Sequence{5,6}.last()"), 6.0);
  EXPECT_DOUBLE_EQ(num("Sequence{5,6,7}.at(1)"), 6.0);
  EXPECT_TRUE(boolean("Sequence{5,6}.includes(6)"));
  EXPECT_FALSE(boolean("Sequence{5,6}.includes(7)"));
  EXPECT_TRUE(boolean("Sequence{}.isEmpty()"));
  EXPECT_TRUE(boolean("Sequence{1}.notEmpty()"));
}

TEST(Query, EmptyCollectionAccessThrows) {
  EXPECT_THROW(run("Sequence{}.first()"), QueryError);
  EXPECT_THROW(run("Sequence{}.avg()"), QueryError);
  EXPECT_THROW(run("Sequence{1}.at(5)"), QueryError);
}

TEST(Query, SortByAndDistinct) {
  EXPECT_DOUBLE_EQ(num("Sequence{3,1,2}.sortBy(x | x).first()"), 1.0);
  EXPECT_DOUBLE_EQ(num("Sequence{3,1,2}.sortBy(x | 0 - x).first()"), 3.0);
  EXPECT_DOUBLE_EQ(num("Sequence{1,2,1,3,2}.distinct().size()"), 3.0);
}

TEST(Query, Flatten) {
  EXPECT_DOUBLE_EQ(num("Sequence{Sequence{1,2}, Sequence{3}}.flatten().sum()"), 6.0);
  EXPECT_DOUBLE_EQ(num("Sequence{1, Sequence{2,3}}.flatten().size()"), 3.0);
  EXPECT_DOUBLE_EQ(
      num("Sequence{1,2}.collect(x | Sequence{x, x * 10}).flatten().sum()"), 33.0);
}

TEST(Query, NestedLambdas) {
  EXPECT_DOUBLE_EQ(
      num("Sequence{1,2}.collect(x | Sequence{10,20}.select(y | y > x * 10).size()).sum()"),
      1.0);
}

TEST(Query, LambdaOutsideCollectionOpThrows) {
  EXPECT_THROW(run("abs(x | x)"), QueryError);
}

// ----------------------------------------------------------------- strings --

TEST(Query, StringMethods) {
  EXPECT_DOUBLE_EQ(num("'hello'.size()"), 5.0);
  EXPECT_EQ(run("'HeLLo'.toLower()").as_string(), "hello");
  EXPECT_EQ(run("'hello'.toUpper()").as_string(), "HELLO");
  EXPECT_TRUE(boolean("'hello'.contains('ell')"));
  EXPECT_TRUE(boolean("'hello'.startsWith('he')"));
  EXPECT_TRUE(boolean("'hello'.endsWith('lo')"));
  EXPECT_EQ(run("'  x '.trim()").as_string(), "x");
  EXPECT_DOUBLE_EQ(num("'3.5'.toNumber()"), 3.5);
}

TEST(Query, NumberMethods) {
  EXPECT_DOUBLE_EQ(num("(2.4).round()"), 2.0);
  EXPECT_DOUBLE_EQ(num("(2.4).ceil()"), 3.0);
  EXPECT_DOUBLE_EQ(num("(2.6).floor()"), 2.0);
  EXPECT_DOUBLE_EQ(num("(-2.5).abs()"), 2.5);
  EXPECT_EQ(run("(1.5).toString()").as_string(), "1.5");
}

// ----------------------------------------------------------------- objects --

TEST(Query, ObjectPropertiesAndMethods) {
  Env env;
  env.set("p", Value(ObjectPtr(std::make_shared<Point>(3.0, 4.0))));
  EXPECT_DOUBLE_EQ(eval("sqrt(p.x * p.x + p.y * p.y)", env).as_number(), 5.0);
  EXPECT_TRUE(eval("p.hasProperty('x')", env).as_bool());
  EXPECT_FALSE(eval("p.hasProperty('z')", env).as_bool());
  EXPECT_TRUE(eval("p.isTypeOf('Point')", env).as_bool());
  EXPECT_THROW(eval("p.z", env), QueryError);
}

TEST(Query, ObjectCollections) {
  Env env;
  Collection points;
  points.push_back(Value(ObjectPtr(std::make_shared<Point>(1.0, 0.0))));
  points.push_back(Value(ObjectPtr(std::make_shared<Point>(2.0, 0.0))));
  points.push_back(Value(ObjectPtr(std::make_shared<Point>(3.0, 0.0))));
  env.set("points", Value::collection(std::move(points)));
  EXPECT_DOUBLE_EQ(eval("points.select(p | p.x > 1).collect(p | p.x).sum()", env).as_number(),
                   5.0);
}

// ------------------------------------------------------------------ errors --

TEST(Query, SyntaxErrors) {
  EXPECT_THROW(run("1 +"), QueryError);
  EXPECT_THROW(run("var = 3; 1"), QueryError);
  EXPECT_THROW(run("(1"), QueryError);
  EXPECT_THROW(run("'unterminated"), QueryError);
  EXPECT_THROW(run("1 2"), QueryError);
  EXPECT_THROW(run("@"), QueryError);
}

TEST(Query, CommentsAreIgnored) {
  EXPECT_DOUBLE_EQ(num("-- comment\n1 + 1 // more\n"), 2.0);
}

// A parameterised sweep of expression/expected pairs.
struct Sample {
  const char* name;
  const char* source;
  double expected;
};

// Prints a sample as its name. Without this, gtest prints the raw bytes of
// `source`, a load address that changes from run to run, and CTest's test
// discovery puts that printout into every test's name.
void PrintTo(const Sample& sample, std::ostream* os) { *os << sample.name; }

class ExpressionSweep : public ::testing::TestWithParam<Sample> {};

TEST_P(ExpressionSweep, Evaluates) {
  EXPECT_DOUBLE_EQ(num(GetParam().source), GetParam().expected) << GetParam().source;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, ExpressionSweep,
    ::testing::Values(Sample{"precedence", "2 + 3 * 4 - 5", 9.0},
                      Sample{"parentheses", "2 * (3 + 4)", 14.0},
                      Sample{"left_associative_division", "100 / 10 / 2", 5.0},
                      Sample{"equality_ternary", "2 + 2 == 4 ? 1 : 0", 1.0},
                      Sample{"select_sum",
                             "Sequence{1,2,3,4,5}.select(x | x % 2 == 1).sum()", 9.0},
                      Sample{"collect_max", "Sequence{10,20}.collect(x | x / 10).max()", 2.0},
                      Sample{"var_bindings", "var a = 5; var b = a * a; b - a", 20.0},
                      Sample{"logic_ternary", "not (1 > 2) and 3 >= 3 ? 42 : 0", 42.0}));
