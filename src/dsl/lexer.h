#ifndef RELACC_DSL_LEXER_H_
#define RELACC_DSL_LEXER_H_

#include <string>
#include <vector>

#include "dsl/token.h"
#include "util/status.h"

namespace relacc {

/// Lexer for the rule DSL. Whitespace separates tokens; `#` starts a
/// comment running to end of line. Attribute references are bracketed and
/// lexed raw — `[J#]` and `[closed?]` are single kAttrRef tokens whose text
/// is everything between the brackets (leading/trailing blanks trimmed), so
/// attribute names may contain any character except `]` and newline.
class Lexer {
 public:
  /// `input` is borrowed, not copied: it must outlive the lexer, so a
  /// temporary is rejected at compile time.
  explicit Lexer(const std::string& input);
  explicit Lexer(std::string&&) = delete;

  /// Lexes the next token, or a ParseError naming line/column on bad input
  /// (unterminated string, stray character, malformed number).
  Result<Token> Next();

  /// Lexes the whole input. On error the tokens already produced are lost;
  /// use Next() for resumable scanning.
  Result<std::vector<Token>> Tokenize();

 private:
  char Peek(int ahead = 0) const;
  char Advance();
  bool AtEnd() const { return pos_ >= static_cast<int>(input_.size()); }
  void SkipWhitespaceAndComments();

  Status ErrorHere(const std::string& message) const;

  Result<Token> LexString(Token token);
  Result<Token> LexNumber(Token token);
  Result<Token> LexAttrRef(Token token);
  Result<Token> LexIdentOrKeyword(Token token);

  const std::string& input_;
  int pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace relacc

#endif  // RELACC_DSL_LEXER_H_
