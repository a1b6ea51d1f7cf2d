package x86

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestInstRecordSize pins the decoded-instruction record: at most 64
// bytes (one cache line) and free of anything the garbage collector would
// have to scan.
func TestInstRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Inst{}); size > 64 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want <= 64", size)
	}
	typ := reflect.TypeOf(Inst{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func, reflect.Array, reflect.Struct:
			t.Errorf("Inst.%s is a %s; the record must hold scalars only", f.Name, f.Type.Kind())
		}
	}
}
