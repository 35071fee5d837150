package asm

import (
	"fmt"
	"sort"
	"strings"

	"eilid/internal/isa"
)

// ListEntry is one line of a listing file: the address a source line
// assembled to, the machine words it produced, and the source text.
// EILIDinst resolves call-site return addresses from these entries
// (paper Figure 2: the `.lst` inputs of the instrumentation iterations).
type ListEntry struct {
	Addr    uint16
	Words   []uint16 // machine words (instructions, .word data)
	Bytes   int      // byte count for byte-granular data (.byte/.ascii)
	Line    int      // 1-based source line number
	Source  string   // trimmed source text
	Label   string   // label defined on this line, if any
	IsInstr bool
	Instr   isa.Instruction // valid when IsInstr
}

// Size returns the number of bytes this entry occupies.
func (e ListEntry) Size() uint16 {
	if len(e.Words) > 0 {
		return uint16(2 * len(e.Words))
	}
	return uint16(e.Bytes)
}

// Listing is the full listing of one assembly run.
type Listing struct {
	Name    string
	Symbols map[string]uint16
	Entries []ListEntry
}

// EntryForLine returns the listing entry produced by the given source
// line, if any. This is the instrumenter's primary lookup.
func (l *Listing) EntryForLine(line int) (ListEntry, bool) {
	for _, e := range l.Entries {
		if e.Line == line && (e.IsInstr || e.Size() > 0 || e.Label != "") {
			return e, true
		}
	}
	return ListEntry{}, false
}

// FunctionSymbols returns symbols that label instruction entries (i.e.
// code labels, the candidate function entry points for the EILID
// forward-edge table), sorted by address.
func (l *Listing) FunctionSymbols() []string {
	addrs := map[uint16]bool{}
	for _, e := range l.Entries {
		if e.IsInstr {
			addrs[e.Addr] = true
		}
	}
	var names []string
	for name, v := range l.Symbols {
		if addrs[v] {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if l.Symbols[names[i]] != l.Symbols[names[j]] {
			return l.Symbols[names[i]] < l.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// String renders the listing in the textual `.lst` format:
//
//	; listing: <name>
//	; symbols:
//	;   <name> = 0x....
//	e000  4031 0a00  |    3| mov #0x0A00, sp
//
// It is a display format (eilid-asm, eilid-instr -lst); the EILID
// pipeline hands listings between its iterations as structs.
func (l *Listing) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; listing: %s\n; symbols:\n", l.Name)
	names := make([]string, 0, len(l.Symbols))
	for n := range l.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, ";   %s = 0x%04x\n", n, l.Symbols[n])
	}
	for _, e := range l.Entries {
		var wordCol string
		switch {
		case e.IsInstr:
			wordCol = isa.FormatWords(e.Words)
		case len(e.Words) > 0:
			// Data words carry an '=' marker so a reader never takes
			// them for instructions (a .word whose value happens to
			// decode looks like one).
			parts := make([]string, len(e.Words))
			for i, w := range e.Words {
				parts[i] = fmt.Sprintf("=%04x", w)
			}
			wordCol = strings.Join(parts, " ")
		case e.Bytes > 0:
			wordCol = fmt.Sprintf("<%d bytes>", e.Bytes)
		}
		fmt.Fprintf(&b, "%04x  %-24s |%5d| %s\n", e.Addr, wordCol, e.Line, e.Source)
	}
	return b.String()
}
