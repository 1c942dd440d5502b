package sem

import (
	"math"
	"strings"

	"natix/internal/xval"
)

// FuncID identifies a function of the XPath 1.0 core library (plus the
// engine-internal helpers) for fast dispatch in the virtual machine and the
// interpreters.
type FuncID uint8

// Core library function identifiers (XPath 1.0 section 4) and internal
// helpers.
const (
	FnLast FuncID = iota
	FnPosition
	FnCount
	FnID
	FnLocalName
	FnNamespaceURI
	FnName
	FnString
	FnConcat
	FnStartsWith
	FnContains
	FnSubstringBefore
	FnSubstringAfter
	FnSubstring
	FnStringLength
	FnNormalizeSpace
	FnTranslate
	FnBoolean
	FnNot
	FnTrue
	FnFalse
	FnLang
	FnNumber
	FnSum
	FnFloor
	FnCeiling
	FnRound
	// FnPredTruth is the internal runtime predicate-truth test for
	// predicates whose static type is unknown (variables): a number result
	// n is true iff n = position(), anything else converts to boolean
	// (spec section 2.4).
	FnPredTruth
)

// FuncKind classifies functions the way the translation does (paper
// section 3.6).
type FuncKind uint8

// Function classes.
const (
	// FKSimple functions neither consume nor produce node-sets.
	FKSimple FuncKind = iota
	// FKNodeSetBased functions take node-set arguments and return simple
	// values (count, sum, string/number/boolean over node-sets, name
	// accessors, lang).
	FKNodeSetBased
	// FKNodeSetValued functions return node-sets (only id()).
	FKNodeSetValued
	// FKPositional functions read the dynamic context position/size
	// (position, last).
	FKPositional
)

// Function describes one library function.
type Function struct {
	ID      FuncID
	Name    string
	Kind    FuncKind
	Ret     Type
	Params  []Type // declared parameter types; conversions are inserted
	MinArgs int
	// Variadic marks concat: the last parameter type repeats.
	Variadic bool
	// CtxDefault: with zero arguments the function applies to the context
	// node; analysis inserts an explicit self::node() path argument.
	CtxDefault bool
}

// library is the XPath 1.0 core function library.
var library = []*Function{
	{ID: FnLast, Name: "last", Kind: FKPositional, Ret: TNumber},
	{ID: FnPosition, Name: "position", Kind: FKPositional, Ret: TNumber},
	{ID: FnCount, Name: "count", Kind: FKNodeSetBased, Ret: TNumber, Params: []Type{TNodeSet}, MinArgs: 1},
	{ID: FnID, Name: "id", Kind: FKNodeSetValued, Ret: TNodeSet, Params: []Type{TObject}, MinArgs: 1},
	{ID: FnLocalName, Name: "local-name", Kind: FKNodeSetBased, Ret: TString, Params: []Type{TNodeSet}, CtxDefault: true},
	{ID: FnNamespaceURI, Name: "namespace-uri", Kind: FKNodeSetBased, Ret: TString, Params: []Type{TNodeSet}, CtxDefault: true},
	{ID: FnName, Name: "name", Kind: FKNodeSetBased, Ret: TString, Params: []Type{TNodeSet}, CtxDefault: true},
	{ID: FnString, Name: "string", Kind: FKSimple, Ret: TString, Params: []Type{TObject}, CtxDefault: true},
	{ID: FnConcat, Name: "concat", Kind: FKSimple, Ret: TString, Params: []Type{TString, TString}, MinArgs: 2, Variadic: true},
	{ID: FnStartsWith, Name: "starts-with", Kind: FKSimple, Ret: TBoolean, Params: []Type{TString, TString}, MinArgs: 2},
	{ID: FnContains, Name: "contains", Kind: FKSimple, Ret: TBoolean, Params: []Type{TString, TString}, MinArgs: 2},
	{ID: FnSubstringBefore, Name: "substring-before", Kind: FKSimple, Ret: TString, Params: []Type{TString, TString}, MinArgs: 2},
	{ID: FnSubstringAfter, Name: "substring-after", Kind: FKSimple, Ret: TString, Params: []Type{TString, TString}, MinArgs: 2},
	{ID: FnSubstring, Name: "substring", Kind: FKSimple, Ret: TString, Params: []Type{TString, TNumber, TNumber}, MinArgs: 2},
	{ID: FnStringLength, Name: "string-length", Kind: FKSimple, Ret: TNumber, Params: []Type{TString}, CtxDefault: true},
	{ID: FnNormalizeSpace, Name: "normalize-space", Kind: FKSimple, Ret: TString, Params: []Type{TString}, CtxDefault: true},
	{ID: FnTranslate, Name: "translate", Kind: FKSimple, Ret: TString, Params: []Type{TString, TString, TString}, MinArgs: 3},
	{ID: FnBoolean, Name: "boolean", Kind: FKSimple, Ret: TBoolean, Params: []Type{TObject}, MinArgs: 1},
	{ID: FnNot, Name: "not", Kind: FKSimple, Ret: TBoolean, Params: []Type{TBoolean}, MinArgs: 1},
	{ID: FnTrue, Name: "true", Kind: FKSimple, Ret: TBoolean},
	{ID: FnFalse, Name: "false", Kind: FKSimple, Ret: TBoolean},
	{ID: FnLang, Name: "lang", Kind: FKNodeSetBased, Ret: TBoolean, Params: []Type{TString}, MinArgs: 1},
	{ID: FnNumber, Name: "number", Kind: FKSimple, Ret: TNumber, Params: []Type{TObject}, CtxDefault: true},
	{ID: FnSum, Name: "sum", Kind: FKNodeSetBased, Ret: TNumber, Params: []Type{TNodeSet}, MinArgs: 1},
	{ID: FnFloor, Name: "floor", Kind: FKSimple, Ret: TNumber, Params: []Type{TNumber}, MinArgs: 1},
	{ID: FnCeiling, Name: "ceiling", Kind: FKSimple, Ret: TNumber, Params: []Type{TNumber}, MinArgs: 1},
	{ID: FnRound, Name: "round", Kind: FKSimple, Ret: TNumber, Params: []Type{TNumber}, MinArgs: 1},
	{ID: FnPredTruth, Name: "__pred-truth", Kind: FKSimple, Ret: TBoolean, Params: []Type{TObject, TNumber}, MinArgs: 2},
}

var libraryByName = func() map[string]*Function {
	m := make(map[string]*Function, len(library))
	for _, f := range library {
		m[f.Name] = f
	}
	return m
}()

var libraryByID = func() map[FuncID]*Function {
	m := make(map[FuncID]*Function, len(library))
	for _, f := range library {
		m[f.ID] = f
	}
	return m
}()

// LookupFunction resolves a core library function by its XPath name.
// Internal helper functions (leading underscores) are not resolvable from
// source text.
func LookupFunction(name string) (*Function, bool) {
	if strings.HasPrefix(name, "__") {
		return nil, false
	}
	f, ok := libraryByName[name]
	return f, ok
}

// FunctionByID returns the library entry for the given identifier.
func FunctionByID(id FuncID) *Function { return libraryByID[id] }

// MaxArgs returns the maximum argument count, or -1 for variadic functions.
func (f *Function) MaxArgs() int {
	if f.Variadic {
		return -1
	}
	return len(f.Params)
}

// fmod implements XPath mod: the remainder with the sign of the dividend
// (identical to Go's math.Mod, unlike IEEE remainder).
func fmod(a, b float64) float64 { return math.Mod(a, b) }

// EvalSimpleString evaluates the pure string/number/boolean functions on
// already-converted argument values. It is shared by constant folding, the
// virtual machine, and the baseline interpreter. The caller must pass
// exactly the converted arguments (context defaults expanded); node-set
// based and positional functions are not handled here.
func EvalSimpleString(id FuncID, args []xval.Value) (xval.Value, bool) {
	switch id {
	case FnString:
		return xval.Str(args[0].String()), true
	case FnConcat:
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.S)
		}
		return xval.Str(sb.String()), true
	case FnStartsWith:
		return xval.Bool(strings.HasPrefix(args[0].S, args[1].S)), true
	case FnContains:
		return xval.Bool(strings.Contains(args[0].S, args[1].S)), true
	case FnSubstringBefore:
		if i := strings.Index(args[0].S, args[1].S); i >= 0 {
			return xval.Str(args[0].S[:i]), true
		}
		return xval.Str(""), true
	case FnSubstringAfter:
		if i := strings.Index(args[0].S, args[1].S); i >= 0 {
			return xval.Str(args[0].S[i+len(args[1].S):]), true
		}
		return xval.Str(""), true
	case FnSubstring:
		length := math.Inf(1)
		if len(args) == 3 {
			length = args[2].N
		}
		return xval.Str(Substring(args[0].S, args[1].N, length)), true
	case FnStringLength:
		return xval.Num(float64(len([]rune(args[0].S)))), true
	case FnNormalizeSpace:
		return xval.Str(NormalizeSpace(args[0].S)), true
	case FnTranslate:
		return xval.Str(Translate(args[0].S, args[1].S, args[2].S)), true
	case FnBoolean:
		return xval.Bool(args[0].Boolean()), true
	case FnNot:
		return xval.Bool(!args[0].B), true
	case FnTrue:
		return xval.Bool(true), true
	case FnFalse:
		return xval.Bool(false), true
	case FnNumber:
		return xval.Num(args[0].Number()), true
	case FnFloor:
		return xval.Num(math.Floor(args[0].N)), true
	case FnCeiling:
		return xval.Num(math.Ceil(args[0].N)), true
	case FnRound:
		return xval.Num(xval.Round(args[0].N)), true
	case FnPredTruth:
		if args[0].Kind == xval.KindNumber {
			return xval.Bool(args[0].N == args[1].N), true
		}
		return xval.Bool(args[0].Boolean()), true
	}
	return xval.Value{}, false
}

// Substring implements the XPath substring() function with its rounding and
// NaN/infinity edge cases (spec 4.2): positions are 1-based, start and
// length are rounded, and characters are counted in runes.
func Substring(s string, start, length float64) string {
	runes := []rune(s)
	from := xval.Round(start)
	to := from + xval.Round(length)
	// NaN comparisons are false, making the slice empty, as the spec wants.
	var sb strings.Builder
	for i, r := range runes {
		pos := float64(i + 1)
		if pos >= from && pos < to {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// NormalizeSpace trims leading/trailing XML whitespace and collapses
// internal runs to a single space.
func NormalizeSpace(s string) string {
	var sb strings.Builder
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			inWord = false
			continue
		}
		if !inWord && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		inWord = true
		sb.WriteByte(c)
	}
	return sb.String()
}

// Translate implements the XPath translate() function: each rune of s
// occurring in from is replaced by the corresponding rune of to, or removed
// if to is shorter.
func Translate(s, from, to string) string {
	fromRunes := []rune(from)
	toRunes := []rune(to)
	repl := make(map[rune]rune, len(fromRunes))
	drop := make(map[rune]bool, len(fromRunes))
	for i, r := range fromRunes {
		if _, seen := repl[r]; seen || drop[r] {
			continue // first occurrence wins
		}
		if i < len(toRunes) {
			repl[r] = toRunes[i]
		} else {
			drop[r] = true
		}
	}
	var sb strings.Builder
	for _, r := range s {
		if drop[r] {
			continue
		}
		if rr, ok := repl[r]; ok {
			sb.WriteRune(rr)
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}
