package dbi

import (
	"testing"

	"sigil/internal/vm"
)

func testProgram(t *testing.T) *vm.Program {
	t.Helper()
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 16)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 5)
	main.Store(vm.R1, 0, vm.R2, 8)
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Movi(vm.R4, 0)
	next := main.NewLabel()
	main.Beq(vm.R4, vm.R4, next) // taken hop to the next instruction
	main.Bind(next)
	main.Sys(vm.SysRand)
	main.Halt()
	return mustBuild(b)
}

func TestRunNativeNilTool(t *testing.T) {
	res, err := Run(testProgram(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instrs != 8 {
		t.Errorf("instrs = %d, want 8", res.Stats.Instrs)
	}
}

func TestRunPropagatesFaults(t *testing.T) {
	b := vm.NewBuilder()
	f := b.Func("main")
	f.Movi(vm.R1, 1)
	f.Movi(vm.R2, 0)
	f.Div(vm.R3, vm.R1, vm.R2)
	f.Halt()
	if _, err := Run(mustBuild(b), nil, nil); err == nil {
		t.Error("fault not propagated")
	}
}

func TestRunRejectsInvalidProgram(t *testing.T) {
	if _, err := Run(&vm.Program{}, nil, nil); err == nil {
		t.Error("invalid program accepted")
	}
}
