#include "datalog/parser.h"

#include <cctype>
#include <charconv>
#include <string_view>

#include "common/strings.h"
#include "datalog/equality.h"

namespace linrec {
namespace {

enum class TokKind { kIdent, kVariable, kInteger, kLParen, kRParen, kComma,
                     kImplies, kQuery, kPeriod, kEquals, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  /// Identifiers and variables: the name, a view into the source text.
  std::string_view text;
  Value number = 0;
  int line = 1;
  int col = 1;
};

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Reads one token per Next call, so the parser holds one token of
/// lookahead and never a token array.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Reads the token after the previous one into `tok` (kEnd at the end of
  /// the text).
  Status Next(Token* tok) {
    SkipWhitespaceAndComments();
    tok->line = line_;
    tok->col = col_;
    tok->text = {};
    if (pos_ >= text_.size()) {
      tok->kind = TokKind::kEnd;
      return Status::OK();
    }
    char c = text_[pos_];
    if (c == '(') {
      tok->kind = TokKind::kLParen;
      Advance();
    } else if (c == ')') {
      tok->kind = TokKind::kRParen;
      Advance();
    } else if (c == ',') {
      tok->kind = TokKind::kComma;
      Advance();
    } else if (c == '.') {
      tok->kind = TokKind::kPeriod;
      Advance();
    } else if (c == '=') {
      tok->kind = TokKind::kEquals;
      Advance();
    } else if (c == ':') {
      Advance();
      if (pos_ >= text_.size() || text_[pos_] != '-') {
        return Error("expected '-' after ':'");
      }
      Advance();
      tok->kind = TokKind::kImplies;
    } else if (c == '?') {
      Advance();
      if (pos_ >= text_.size() || text_[pos_] != '-') {
        return Error("expected '-' after '?'");
      }
      Advance();
      tok->kind = TokKind::kQuery;
    } else if (IsDigit(c) || c == '-') {
      const std::size_t start = pos_;
      if (c == '-') {
        Advance();
        if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
          return Error("expected digit after '-'");
        }
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) Advance();
      // The span is an optional '-' and at least one digit, so out of
      // range is the one way from_chars can fail.
      if (std::from_chars(text_.data() + start, text_.data() + pos_,
                          tok->number)
              .ec != std::errc()) {
        return Status::ParseError(
            StrCat(tok->line, ":", tok->col, ": integer out of range"));
      }
      tok->kind = TokKind::kInteger;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = pos_;
      // '#' appears in generated narrow-rule predicates ("p#0_2"); '\''
      // appears in renamed variables. Both round-trip through the printer.
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '\'' ||
              text_[pos_] == '#')) {
        Advance();
      }
      tok->text = text_.substr(start, pos_ - start);
      tok->kind = (std::isupper(static_cast<unsigned char>(c)) || c == '_')
                      ? TokKind::kVariable
                      : TokKind::kIdent;
    } else {
      return Error(StrCat("unexpected character '", std::string(1, c), "'"));
    }
    return Status::OK();
  }

 private:
  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '%' ||
                 (c == '/' && pos_ + 1 < text_.size() &&
                  text_[pos_ + 1] == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        return;
      }
    }
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(StrCat(line_, ":", col_, ": ", msg));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// Recursive descent over the lexer's tokens with one token of lookahead
/// (`tok_`). Errors are reported in text order: the first malformed token,
/// lexical or syntactic, ends the parse.
class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  Result<Program> ParseAll() {
    Program program;
    LINREC_RETURN_IF_ERROR(Advance());
    while (tok_.kind != TokKind::kEnd) {
      LINREC_RETURN_IF_ERROR(ParseClause(&program));
    }
    return program;
  }

 private:
  /// Replaces the lookahead with the next token.
  Status Advance() { return lexer_.Next(&tok_); }

  Status Error(const Token& tok, const std::string& msg) const {
    return Status::ParseError(StrCat(tok.line, ":", tok.col, ": ", msg));
  }

  Status Expect(TokKind kind, const char* what) {
    if (tok_.kind != kind) {
      return Error(tok_, StrCat("expected ", what));
    }
    return Advance();
  }

  bool AtTerm() const {
    return tok_.kind == TokKind::kVariable || tok_.kind == TokKind::kInteger;
  }

  /// The variable or integer the lookahead holds (AtTerm()).
  Term CurrentTerm(RuleBuilder* builder) const {
    return tok_.kind == TokKind::kVariable
               ? Term::MakeVar(builder->Var(std::string(tok_.text)))
               : Term::MakeConst(tok_.number);
  }

  // Parses one atom into `builder`-interned terms.
  Status ParseAtom(RuleBuilder* builder, std::string* predicate,
                   std::vector<Term>* terms) {
    if (tok_.kind != TokKind::kIdent) {
      return Error(tok_, "expected predicate name (lowercase identifier)");
    }
    predicate->assign(tok_.text);
    LINREC_RETURN_IF_ERROR(Advance());
    LINREC_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    // Terms collect in a reused buffer, so an atom allocates its term
    // vector once, at its final size.
    scratch_.clear();
    while (true) {
      if (!AtTerm()) {
        return Error(tok_, "expected variable or integer constant");
      }
      scratch_.push_back(CurrentTerm(builder));
      LINREC_RETURN_IF_ERROR(Advance());
      if (tok_.kind != TokKind::kComma) break;
      LINREC_RETURN_IF_ERROR(Advance());
    }
    terms->assign(scratch_.begin(), scratch_.end());
    return Expect(TokKind::kRParen, "')'");
  }

  Status ParseClause(Program* program) {
    RuleBuilder builder;
    std::string head_pred;
    std::vector<Term> head_terms;
    const Token start = tok_;
    if (start.kind == TokKind::kQuery) {
      // Query goal: "?- atom." — variables and constants both allowed.
      LINREC_RETURN_IF_ERROR(Advance());
      LINREC_RETURN_IF_ERROR(ParseAtom(&builder, &head_pred, &head_terms));
      LINREC_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.'"));
      program->queries.push_back(
          Atom{std::move(head_pred), std::move(head_terms)});
      return Status::OK();
    }
    LINREC_RETURN_IF_ERROR(ParseAtom(&builder, &head_pred, &head_terms));

    if (tok_.kind == TokKind::kPeriod) {
      // Fact: must be ground.
      for (const Term& t : head_terms) {
        if (t.is_var()) {
          return Error(start, StrCat("fact '", head_pred,
                                     "' contains a variable; facts must be "
                                     "ground"));
        }
      }
      program->facts.push_back(
          Atom{std::move(head_pred), std::move(head_terms)});
      return Advance();
    }

    LINREC_RETURN_IF_ERROR(Expect(TokKind::kImplies, "':-' or '.'"));
    builder.SetHead(head_pred, std::move(head_terms));
    while (true) {
      // Body element: either an atom or an infix equality `term = term`
      // (sugar for eq(term, term)).
      if (AtTerm()) {
        const Term lhs = CurrentTerm(&builder);
        LINREC_RETURN_IF_ERROR(Advance());
        LINREC_RETURN_IF_ERROR(Expect(TokKind::kEquals, "'='"));
        if (!AtTerm()) {
          return Error(tok_, "expected variable or constant after '='");
        }
        const Term rhs = CurrentTerm(&builder);
        LINREC_RETURN_IF_ERROR(Advance());
        builder.AddBodyAtom(kEqualityPredicate, {lhs, rhs});
      } else {
        std::string pred;
        std::vector<Term> terms;
        LINREC_RETURN_IF_ERROR(ParseAtom(&builder, &pred, &terms));
        builder.AddBodyAtom(std::move(pred), std::move(terms));
      }
      if (tok_.kind != TokKind::kComma) break;
      LINREC_RETURN_IF_ERROR(Advance());
    }
    LINREC_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.'"));
    Result<Rule> rule = builder.Build();
    if (!rule.ok()) return Error(start, rule.status().message());
    program->rules.push_back(std::move(rule).value());
    return Status::OK();
  }

  Lexer lexer_;
  /// The lookahead: the next token the parser has not consumed.
  Token tok_;
  std::vector<Term> scratch_;
};

}  // namespace

Result<Database> Program::FactsToDatabase() const {
  Database db;
  for (const Atom& fact : facts) {
    const Relation* existing = db.Find(fact.predicate);
    if (existing != nullptr && existing->arity() != fact.arity()) {
      return Status::InvalidArgument(
          StrCat("fact predicate '", fact.predicate,
                 "' used with inconsistent arities"));
    }
    Relation& rel = db.GetOrCreate(fact.predicate, fact.arity());
    std::vector<Value> values;
    values.reserve(fact.arity());
    for (const Term& t : fact.terms) values.push_back(t.constant());
    rel.Insert(Tuple(std::move(values)));
  }
  return db;
}

Result<Program> ParseProgram(const std::string& text) {
  return Parser(text).ParseAll();
}

Result<Rule> ParseRule(const std::string& text) {
  Result<Program> program = ParseProgram(text);
  if (!program.ok()) return program.status();
  if (program->rules.size() != 1 || !program->facts.empty() ||
      !program->queries.empty()) {
    return Status::InvalidArgument(
        StrCat("expected exactly one rule, got ", program->rules.size(),
               " rule(s) and ", program->facts.size(), " fact(s)"));
  }
  return std::move(program->rules[0]);
}

Result<LinearRule> ParseLinearRule(const std::string& text) {
  Result<Rule> rule = ParseRule(text);
  if (!rule.ok()) return rule.status();
  return LinearRule::Make(std::move(rule).value());
}

}  // namespace linrec
