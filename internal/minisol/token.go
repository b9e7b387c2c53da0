// Package minisol implements a compiler for a subset of Solidity 0.5 —
// the language the paper writes its legal contracts in — targeting the
// EVM implemented in internal/evm.
//
// The subset covers everything the paper's contracts (Figs. 3, 5, 6)
// need: contracts with single inheritance, state variables with public
// getters, structs, enums, (nested) mappings with address/uint/string
// keys, dynamic arrays, strings, events with indexed parameters,
// require/revert with reasons, ether transfer, and the msg/block
// builtins. Storage layout follows Solidity's rules except that values
// are never packed (every variable and struct field occupies a full
// 32-byte slot); selectors, event topics and the ABI encoding are fully
// compatible, so artifacts interoperate with any ABI tooling.
package minisol

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct // operators and punctuation
	TokKeyword
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

var keywords = map[string]bool{
	"pragma": true, "solidity": true, "contract": true, "is": true,
	"struct": true, "enum": true, "mapping": true, "function": true,
	"constructor": true, "event": true, "emit": true, "returns": true,
	"return": true, "if": true, "else": true, "while": true, "for": true,
	"require": true, "revert": true, "public": true, "private": true,
	"internal": true, "external": true, "view": true, "pure": true,
	"payable": true, "memory": true, "storage": true, "calldata": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true,
	"uint64": true, "uint128": true, "uint256": true, "int": true,
	"int256": true, "address": true, "bool": true, "string": true,
	"bytes32": true, "bytes": true, "true": true, "false": true,
	"indexed": true, "new": true, "delete": true, "this": true,
	"msg": true, "block": true, "now": true, "wei": true, "ether": true,
	"anonymous": true, "constant": true, "push": true,
	"break": true, "continue": true,
}

type lexError struct {
	line, col int
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("minisol: %d:%d: %s", e.line, e.col, e.msg)
}

// lex tokenizes source, stripping // and /* */ comments.
func lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if src[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			advance(2)
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				advance(1)
			}
			if i+1 >= len(src) {
				return nil, &lexError{line, col, "unterminated block comment"}
			}
			advance(2)
		case c == '"' || c == '\'':
			quote := c
			startLine, startCol := line, col
			advance(1)
			var sb strings.Builder
			for i < len(src) && src[i] != quote {
				if src[i] == '\\' && i+1 < len(src) {
					advance(1)
					switch src[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\', '"', '\'':
						sb.WriteByte(src[i])
					default:
						return nil, &lexError{line, col, "unknown escape"}
					}
					advance(1)
					continue
				}
				sb.WriteByte(src[i])
				advance(1)
			}
			if i >= len(src) {
				return nil, &lexError{startLine, startCol, "unterminated string"}
			}
			advance(1)
			toks = append(toks, Token{TokString, sb.String(), startLine, startCol})
		case unicode.IsDigit(rune(c)):
			startLine, startCol := line, col
			j := i
			if c == '0' && i+1 < len(src) && (src[i+1] == 'x' || src[i+1] == 'X') {
				j = i + 2
				for j < len(src) && isHexDigit(src[j]) {
					j++
				}
			} else {
				for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '_' || src[j] == 'e') {
					j++
				}
			}
			text := src[i:j]
			advance(j - i)
			toks = append(toks, Token{TokNumber, text, startLine, startCol})
		case isIdentByte(c, true):
			startLine, startCol := line, col
			j := i
			for j < len(src) && isIdentByte(src[j], false) {
				j++
			}
			text := src[i:j]
			advance(j - i)
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{kind, text, startLine, startCol})
		default:
			startLine, startCol := line, col
			// Multi-char operators, longest first.
			ops := []string{"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--", "=>", "^", "**"}
			matched := ""
			for _, op := range ops {
				if strings.HasPrefix(src[i:], op) {
					matched = op
					break
				}
			}
			if matched == "" {
				if strings.ContainsRune("+-*/%<>=!&|(){}[];,.?:", rune(c)) {
					matched = string(c)
				} else {
					return nil, &lexError{line, col, fmt.Sprintf("unexpected character %q", c)}
				}
			}
			advance(len(matched))
			toks = append(toks, Token{TokPunct, matched, startLine, startCol})
		}
	}
	toks = append(toks, Token{TokEOF, "", line, col})
	return toks, nil
}

// isIdentByte reports whether c may start (first) or continue an
// identifier. Identifiers are ASCII, as in Solidity: no byte of a
// multi-byte UTF-8 sequence is a letter, so a name always survives JSON.
func isIdentByte(c byte, first bool) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$' || !first && c >= '0' && c <= '9'
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
