// Text-format parser for Datalog programs.
//
// Grammar (comments run from '%' or "//" to end of line):
//
//   program  := clause*
//   clause   := atom ( ":-" atom ("," atom)* )? "."
//             | "?-" atom "."
//   atom     := predicate "(" term ("," term)* ")"
//   term     := VARIABLE | INTEGER
//
// Predicates are identifiers starting with a lowercase letter. Variables
// start with an uppercase letter or '_'. Constants are signed 64-bit
// integers — the value domain is typeless (Section 2), so workloads intern
// any symbolic data to integers; a literal outside int64 is a ParseError.
// A clause without a body and without variables is a fact. A "?-" clause
// is a query goal: its atom may mix variables and constants (the front end
// lowers a single constant into a σ bind, engine/query.h).

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "storage/database.h"

namespace linrec {

/// A parsed program: rules (clauses with a body), ground facts, and query
/// goals ("?-" clauses, in program order).
struct Program {
  std::vector<Rule> rules;
  std::vector<Atom> facts;
  std::vector<Atom> queries;

  /// Loads all facts into a Database (arities inferred; conflicting arities
  /// for one predicate yield InvalidArgument).
  Result<Database> FactsToDatabase() const;
};

/// Parses a whole program in one pass over `text`. Errors carry 1-based
/// line:column positions; the first error in text order, lexical or
/// syntactic, is the one reported.
Result<Program> ParseProgram(const std::string& text);

/// Parses exactly one rule (clause with a body).
Result<Rule> ParseRule(const std::string& text);

/// Parses exactly one rule and wraps it as a LinearRule.
Result<LinearRule> ParseLinearRule(const std::string& text);

}  // namespace linrec
