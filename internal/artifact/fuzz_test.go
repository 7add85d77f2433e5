package artifact

import (
	"reflect"
	"testing"

	"repro/internal/profile"
)

// FuzzDecodeArtifact feeds arbitrary bytes to Decode. Neither Decode nor
// DecodedProfiles may panic, and an artifact that decodes must re-encode to
// bytes that decode to an equal artifact.
func FuzzDecodeArtifact(f *testing.F) {
	opts := profile.Options{}
	opts.Workers = 1
	ext := opts
	ext.Classes = map[string]bool{"distribution": true, "fd": true, "unique": true, "frequency": true, "inclusion": true, "conditional": true}
	for _, o := range []profile.Options{opts, ext} {
		a, err := Build(sensorData(300, 1, 1, 0), o)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := a.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"schema_version":1,"profiles":[{"class":"domain","key":"domain:t","data":{"variant":"text-multi","attr":"t","alt":{"branches":[null],"counts":[1]}}}]}`))
	f.Add([]byte(`{"schema_version":1,"profiles":[{"class":"conditional","key":"c","data":{"cond":[{"attr":"a","op":"=","str":"x"}],"class":"missing","inner":{"attr":"b","theta":0.5}}}]}`))
	f.Add([]byte(`{"schema_version":1,"sampling":{},"profiles":[{"class":"nope","key":"k","data":null}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		_, _ = a.DecodedProfiles()
		raw, err := a.Bytes()
		if err != nil {
			t.Fatalf("re-encoding a decoded artifact: %v", err)
		}
		b, err := Decode(raw)
		if err != nil {
			t.Fatalf("decoding the re-encoded artifact: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("re-encoded artifact decodes differently:\n got %+v\nwant %+v", b, a)
		}
	})
}
