package vm

import "testing"

func TestOpClassQueries(t *testing.T) {
	if ClassFPAdd.String() != "fpadd" || OpClass(200).String() == "" {
		t.Error("OpClass.String broken")
	}
}

func TestInstrClass(t *testing.T) {
	if classOf[OpFMul] != ClassFPMul || classOf[OpItoF] != ClassConv {
		t.Error("fmul or itof class")
	}
	if classOf[OpLoad] != ClassNone || classOf[OpCall] != ClassNone {
		t.Error("memory and control ops should have no arithmetic class")
	}
	if !(Instr{Op: OpBeq}).IsBranch() || (Instr{Op: OpBr}).IsBranch() {
		t.Error("IsBranch covers conditional branches only")
	}
}

func TestOpAndSysNames(t *testing.T) {
	if OpAdd.String() != "add" || Op(250).String() == "" {
		t.Error("Op.String broken")
	}
	if SysRead.Name() != "read" || Sys(99).Name() == "" {
		t.Error("Sys.Name broken")
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := NewMemory()
	m.Store(0, 8, 1)
	m.Store(1<<20, 8, 1)
	if m.PagesAllocated() != 2 {
		t.Errorf("pages = %d, want 2", m.PagesAllocated())
	}
}
