package vm

import (
	"fmt"
	"sort"
	"strings"
)

// mustBuild keeps hand-assembled test programs terse now that Builder
// returns errors instead of panicking; a panic here only ever reports a
// typo in the test's own program.
func mustBuild(b *Builder) *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// listingSource turns p's WriteListing output back into assembler source.
// A listing shows data segments only as comments, so listingSource writes
// the .data and .reserve directives anew, in address order (the order the
// builder laid them out in, empty regions first at a shared address), and
// names the entry function.
func listingSource(p *Program) (string, error) {
	type decl struct {
		addr, size uint64
		text       string
	}
	var decls []decl
	for _, s := range p.Segments {
		hex := make([]string, len(s.Data))
		for i, b := range s.Data {
			hex[i] = fmt.Sprintf("%02x", b)
		}
		decls = append(decls, decl{s.Addr, uint64(len(s.Data)), fmt.Sprintf(".data %s %s", s.Name, strings.Join(hex, " "))})
	}
	for _, r := range p.Reserved {
		decls = append(decls, decl{r.Addr, r.Size, fmt.Sprintf(".reserve %s %d", r.Name, r.Size)})
	}
	sort.SliceStable(decls, func(i, j int) bool {
		if decls[i].addr != decls[j].addr {
			return decls[i].addr < decls[j].addr
		}
		return decls[i].size < decls[j].size
	})
	var listing strings.Builder
	if err := p.WriteListing(&listing); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, ".entry %s\n", p.FuncName(p.Entry))
	for _, d := range decls {
		sb.WriteString(d.text + "\n")
	}
	for _, line := range strings.Split(listing.String(), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), ".data") {
			sb.WriteString(line + "\n")
		}
	}
	return sb.String(), nil
}

// listable reports whether a listing can carry p's names: function and
// symbol names must read as identifiers to survive the trip through text.
func listable(p *Program) bool {
	for _, f := range p.Funcs {
		if !isIdent(f.Name) {
			return false
		}
	}
	for _, s := range p.Segments {
		if !isIdent(s.Name) {
			return false
		}
	}
	for _, r := range p.Reserved {
		if !isIdent(r.Name) {
			return false
		}
	}
	return true
}

// sameProgram returns "" when a and b hold the same functions, entry,
// segments and reserved regions, else a description of the first
// difference.
func sameProgram(a, b *Program) string {
	if len(a.Funcs) != len(b.Funcs) || a.Entry != b.Entry {
		return fmt.Sprintf("%d functions, entry %d vs %d functions, entry %d", len(a.Funcs), a.Entry, len(b.Funcs), b.Entry)
	}
	for i, fa := range a.Funcs {
		fb := b.Funcs[i]
		if fa.Name != fb.Name || len(fa.Code) != len(fb.Code) {
			return fmt.Sprintf("function #%d: %s (%d instructions) vs %s (%d)", i, fa.Name, len(fa.Code), fb.Name, len(fb.Code))
		}
		for pc := range fa.Code {
			if fa.Code[pc] != fb.Code[pc] {
				return fmt.Sprintf("%s+%d: %+v vs %+v", fa.Name, pc, fa.Code[pc], fb.Code[pc])
			}
		}
	}
	if fmt.Sprint(a.Segments) != fmt.Sprint(b.Segments) || fmt.Sprint(a.Reserved) != fmt.Sprint(b.Reserved) {
		return fmt.Sprintf("layout %v %v vs %v %v", a.Segments, a.Reserved, b.Segments, b.Reserved)
	}
	return ""
}
