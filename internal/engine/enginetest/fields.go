package enginetest

import (
	"reflect"
	"testing"
)

// eachLeaf calls fn with the dotted path and value of every field under
// struct v that is not itself a struct.
func eachLeaf(v reflect.Value, prefix string, fn func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		path, f := prefix+v.Type().Field(i).Name, v.Field(i)
		if f.Kind() == reflect.Struct {
			eachLeaf(f, path+".", fn)
			continue
		}
		fn(path, f)
	}
}

// SetNonZero sets every leaf field of the struct p points to, nested
// structs included, to a non-zero value: 1, true, "scan" (a plan mode,
// and as good a path as any), a pointer to a zero value. A kind it has no
// value for fails t, so a new field of a new kind is not skipped.
func SetNonZero(t testing.TB, p any) {
	t.Helper()
	eachLeaf(reflect.ValueOf(p).Elem(), "", func(path string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("scan")
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("%s: no non-zero value for a %s", path, f.Kind())
		}
	})
}

// FieldsThatDiffer returns, in declaration order, the dotted paths of
// the leaf fields on which a and b — two values of one struct type —
// differ.
func FieldsThatDiffer(a, b any) []string {
	var paths []string
	vb := map[string]any{}
	eachLeaf(reflect.ValueOf(b), "", func(path string, f reflect.Value) { vb[path] = f.Interface() })
	eachLeaf(reflect.ValueOf(a), "", func(path string, f reflect.Value) {
		if !reflect.DeepEqual(f.Interface(), vb[path]) {
			paths = append(paths, path)
		}
	})
	return paths
}
