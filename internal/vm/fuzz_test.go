package vm

import (
	"errors"
	"strings"
	"testing"
)

// FuzzAssemble checks the assembler never panics, that anything it accepts
// validates, verifies and disassembles cleanly, and that verifier
// rejections surface as the typed *VerifyError rather than a panic.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"func main {\n halt\n}",
		".entry start\nfunc start {\n ret\n}",
		".data d \"hi\"\n.reserve r 64\nfunc main {\n movi r1, d\n load1 r2, r1, 0\n halt\n}",
		"func main {\nl: addi r1, r1, 1\n blt r1, r2, l\n halt\n}",
		"func main {\n fmovi f1, 1.5\n fsqrt f2, f1\n halt\n}",
		"func main {\n sys read\n sys write\n halt\n}",
		"; comment only",
		"func main {\n movi r1, 'x'\n store1 r1, 0, r1\n halt\n}",
		".data x 01 02\nfunc main { halt }",
		"func a {\n call b\n ret\n}\nfunc b {\n ret\n}\n.entry a",
		// Verifier-rejected programs: each must fail Build with a typed
		// *VerifyError, never a panic or an interpreter fault.
		"func main {\n movi r1, 1\n}",                           // falls off the end
		"func main {\n halt\n movi r1, 9\n}",                    // unreachable tail
		"func main {\nl: br l\n}",                               // no reachable ret/halt
		"func main {\n movi r1, 16\n load8 r2, r1, 0\n halt\n}", // wild constant address
		"func main {\n store8 r5, 0, r6\n halt\n}",              // zeroed entry register as base
		// Reserved regions that reach the heap or wrap past 2^64.
		".reserve big 0x10000000\nfunc main {\n movi r1, 8\n alloc r2, r1\n halt\n}",
		".reserve big 0xFFFFFFFFFFFFFFC0\n.data d \"x\"\nfunc main {\n movi r1, d\n load1 r2, r1, 0\n halt\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			var ve *VerifyError
			if errors.As(err, &ve) && len(ve.Diags) == 0 {
				t.Fatalf("verify error with no diagnostics\nsource:\n%s", src)
			}
			if strings.Contains(err.Error(), "vm: verify:") && !errors.As(err, &ve) {
				t.Fatalf("verify rejection is %T, want *VerifyError: %v\nsource:\n%s", err, err, src)
			}
			return // rejected input is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\nsource:\n%s", err, src)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("accepted program fails verification: %v\nsource:\n%s", err, src)
		}
		var sb strings.Builder
		if err := p.WriteListing(&sb); err != nil {
			t.Fatalf("listing failed: %v", err)
		}
	})
}
