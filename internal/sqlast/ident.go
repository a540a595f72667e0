package sqlast

import "strings"

// Render-time identifier quoting. The parser accepts quoted identifiers
// with arbitrary content (`a``b`, `00`, keywords); rendering them bare
// would change meaning or fail to reparse, breaking the render→reparse
// fixed point PQS relies on when campaigns run in wire-fidelity mode.
// writeIdent backtick-quotes any identifier that is not a plain word, or
// that the parser could mistake for a keyword in some identifier
// position. Backtick is the one quoting form every dialect profile's
// lexer reads as a strict identifier (tokQuotedIdent), so one rule serves
// all three dialects.

// renderKeywords is the conservative superset of words the parser
// special-cases anywhere an identifier could appear: statement starters,
// clause terminators (reservedAfterExpr), expression primaries
// (NULL/TRUE/FALSE/CAST/CASE), postfix operators (IS/IN/BETWEEN/LIKE/
// ISNULL/NOTNULL), column-constraint and table-option words. Quoting a
// word that would have parsed bare is harmless — the fixed point only
// requires that quoting is stable — so erring broad is free.
var renderKeywords = map[string]bool{
	"ADD": true, "ALL": true, "ALTER": true, "ANALYZE": true, "AND": true,
	"AS": true, "ASC": true, "BETWEEN": true, "BY": true, "CASE": true,
	"CAST": true, "CHECK": true, "COLLATE": true, "COLUMN": true,
	"CREATE": true, "CROSS": true, "DEFAULT": true, "DELETE": true,
	"DESC": true, "DISCARD": true, "DISTINCT": true, "DROP": true,
	"ELSE": true, "END": true, "ENGINE": true, "EXCEPT": true,
	"EXISTS": true, "EXPLAIN": true, "FALSE": true, "FOR": true,
	"FROM": true, "FULL": true, "GLOBAL": true, "GROUP": true,
	"HAVING": true, "IF": true, "IGNORE": true, "IN": true, "INDEX": true,
	"INHERITS": true, "INNER": true, "INSERT": true, "INTERSECT": true,
	"INTO": true, "IS": true, "ISNULL": true, "JOIN": true, "KEY": true,
	"LEFT": true, "LIKE": true, "LIMIT": true, "NOT": true,
	"NOTNULL": true, "NULL": true, "OFFSET": true, "ON": true,
	"ONLY": true, "OR": true, "ORDER": true, "OUTER": true, "PLAN": true,
	"PLANS": true, "PRAGMA": true, "PRIMARY": true, "QUERY": true,
	"REFERENCES": true, "REINDEX": true, "RENAME": true, "REPAIR": true,
	"REPLACE": true, "ROWID": true, "SELECT": true, "SET": true,
	"STATISTICS": true, "TABLE": true, "THEN": true, "TO": true,
	"TRUE": true, "UNION": true, "UNIQUE": true, "UNSIGNED": true,
	"UPDATE": true, "UPGRADE": true, "VACUUM": true, "VALUES": true,
	"VIEW": true, "WHEN": true, "WHERE": true, "WITHOUT": true,
}

// identNeedsQuote reports whether an identifier must be quoted to survive
// a render→reparse round trip: it is empty, does not lex as a single
// plain identifier token, or collides with a parser keyword.
func identNeedsQuote(name string) bool {
	if name == "" {
		return true
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return true
		}
	}
	return renderKeywords[strings.ToUpper(name)]
}

// writeIdent renders an identifier, backtick-quoting when needed
// (embedded backticks double, the lexer's escape).
func writeIdent(b *sqlBuf, name string) {
	if !identNeedsQuote(name) {
		b.WriteString(name)
		return
	}
	b.WriteByte('`')
	b.WriteString(strings.ReplaceAll(name, "`", "``"))
	b.WriteByte('`')
}

// writeIdentList renders a comma-separated identifier list.
func writeIdentList(b *sqlBuf, names []string) {
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, n)
	}
}
