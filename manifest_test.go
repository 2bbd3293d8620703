package collabscope

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"collabscope/internal/core"
)

// verdictManifest pins, for every point of DefaultVarianceGrid, how many
// elements collaborative scoping keeps on a bundled dataset (hash encoder,
// dim 768, the paper's setting) and a digest of the keep set. A change to
// the SVD, the encoder or the assessment that flips any verdict at any v
// fails here with the grid point it moved.
var verdictManifest = map[string][]manifestPoint{
	"OC3": {
		{1, 36, "e17a6e712a1f8bc0"}, {0.95, 47, "b8a9024e62ae318c"}, {0.9, 57, "448839aa61050909"},
		{0.85, 61, "f8a7e1a9146c2971"}, {0.8, 77, "6a2d2c407cc3ef5a"}, {0.75, 93, "87bb2ff08559d2fc"},
		{0.7, 117, "0d3530942ef54cf0"}, {0.65, 139, "993ea045f023bb96"}, {0.6, 136, "40feb53e985e72de"},
		{0.55, 153, "3aa6f0de4a10e083"}, {0.5, 153, "3aa6f0de4a10e083"}, {0.45, 153, "3aa6f0de4a10e083"},
		{0.4, 150, "5e2cda9b71d39995"}, {0.35, 150, "5e2cda9b71d39995"}, {0.3, 152, "526625e0898fd44a"},
		{0.25, 150, "b62cab96c3fdc4f4"}, {0.2, 150, "b62cab96c3fdc4f4"}, {0.15, 151, "c871fac0c2980c71"},
		{0.1, 151, "c871fac0c2980c71"}, {0.05, 151, "c871fac0c2980c71"}, {0.01, 151, "c871fac0c2980c71"},
	},
	"OC3-FO": {
		{1, 37, "446fa4bfa6c4044f"}, {0.95, 49, "9cdfa791c53ffcc2"}, {0.9, 62, "9c0ee028dc343d3f"},
		{0.85, 66, "d29a374676a9261c"}, {0.8, 106, "6dea999c227f88a1"}, {0.75, 138, "6b20dbe534cd36db"},
		{0.7, 185, "a450ffd63550e699"}, {0.65, 266, "a51ba58f97c8b6a1"}, {0.6, 279, "27361486069a3d0c"},
		{0.55, 281, "5b6b33aceb8027a1"}, {0.5, 282, "ef8ff848e7afcb5a"}, {0.45, 281, "622d68c0902b408b"},
		{0.4, 275, "bc2efe7955fdb0f0"}, {0.35, 275, "bc2efe7955fdb0f0"}, {0.3, 275, "bc2efe7955fdb0f0"},
		{0.25, 272, "17fd94dd919795c1"}, {0.2, 272, "17fd94dd919795c1"}, {0.15, 272, "9ec3d2734e91f587"},
		{0.1, 272, "9ec3d2734e91f587"}, {0.05, 272, "9ec3d2734e91f587"}, {0.01, 272, "9ec3d2734e91f587"},
	},
}

type manifestPoint struct {
	v      float64
	kept   int
	digest string
}

// keepDigest hashes the sorted kept element IDs of a keep map.
func keepDigest(keep map[ElementID]bool) (int, string) {
	ids := make([]string, 0, len(keep))
	for id, k := range keep {
		if k {
			ids = append(ids, fmt.Sprintf("%s\x1f%s\x1f%s\x1f%d", id.Schema, id.Table, id.Attribute, id.Kind))
		}
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, s := range ids {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return len(ids), hex.EncodeToString(h.Sum(nil))[:16]
}

func TestVerdictManifestDim768(t *testing.T) {
	if testing.Short() {
		t.Skip("fits every bundled schema at dim 768")
	}
	for _, ds := range []*Dataset{DatasetOC3(), DatasetOC3FO()} {
		want := verdictManifest[ds.Name]
		sets := New(WithDimension(768)).EncodeAll(ds.Schemas)
		scoper, err := core.NewScoper(sets)
		if err != nil {
			t.Fatal(err)
		}
		grid := DefaultVarianceGrid()
		for i, v := range grid {
			keep, err := scoper.Scope(v)
			if err != nil {
				t.Fatal(err)
			}
			kept, digest := keepDigest(keep)
			if i >= len(want) {
				t.Errorf("%s: no manifest entry for v=%v", ds.Name, v)
				continue
			}
			if w := want[i]; w.v != v || w.kept != kept || w.digest != digest {
				t.Errorf("%s v=%v: kept %d (digest %s), manifest pins %d (%s) at v=%v",
					ds.Name, v, kept, digest, w.kept, w.digest, w.v)
			}
		}
	}
}
