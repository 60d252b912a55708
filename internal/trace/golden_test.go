package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
)

// goldenTrace pins one paper circuit under one compiler on PaperL6: the
// Table II shuttle count, the SHA-256 of the WriteJSON bytes and the
// SHA-256 of the ops' String forms, one per line.
type goldenTrace struct {
	shuttles int
	sha256   string
	opsSHA   string
}

// tableIIGolden holds the five NISQ circuits of Table II × {baseline,
// optimized}. The shuttle counts are the reproduced Table II; the hashes
// pin every trace op (kind, ions, traps, gate index, mnemonic) and the
// header. An intentional scheduling change updates these in the same
// commit and says why.
var tableIIGolden = map[string]map[string]goldenTrace{
	"Supremacy": {
		"baseline":  {800, "610007c0c9f83e4cf70e47931b99579f95f91f9d7454a8c38e393fd08c5633ac", "3b60883a4d3841c63c5ab28c5058131fe6e5b70cac85d655c7f6b44bcdf74e1b"},
		"optimized": {390, "4240ad523ff3ff08004b3c4ac331c1ca82fd0500f11ed0e9c207254c7d9683a6", "ccb9ad9b805c0bccaf773294801a65b3d9ffad528cbf4148c9ab1e507a2151c6"},
	},
	"QAOA": {
		"baseline":  {1248, "c7503bcd875ec2d8a987e7540d7c255a43bccb2496e548f741be524e39ee7e45", "13b5ea7665dcbaa56789e01ec8c7678d60eaf34d2ffa670a462ef31ce29422fd"},
		"optimized": {983, "1e221ebb52a5826328c011546a42f838739d0d5f1ac0c452e42cd232ff813c71", "6ee473e945f9a04ab74b6d3048d276fca84723e2b67e9eabe63340a44c98eebd"},
	},
	"SquareRoot": {
		"baseline":  {1632, "8ea18ec86906397adc2e2c0e3c37ea5998ae9c51c810de4a2aa2b07ed4b02ef4", "2e71ddefe53cb9b4ec53e58ee1fdc94dfe64806703903b561fa13c440eba73d5"},
		"optimized": {729, "25c607c63fde9bba60252efbdbfbe829196f676ce312c7fdbabdd68dbabb4c62", "4439c3acf17bc7082ca7eeffa769b3ff63ba4b8c62963fd32dbd0b9a32a30d14"},
	},
	"QFT": {
		"baseline":  {231, "730ba7a24b8b8a10675784aaa5a0f462415971de449cd8b2dded3d50e45d7ecd", "a6370b1716186c99465c0d71bd02df2cbb4ab40d0af67bfbde7c9ede4b6f700c"},
		"optimized": {172, "1262b8a04386cbe7b15a012a482a60524c775b17c03930c7c2d7f372aa44970a", "4cf6d52bcbfa1079497fa017c2b5e429897acd3575d8d4a3ff5a4be4d43cd221"},
	},
	"QuadraticForm": {
		"baseline":  {477, "147f2687c7836f5792ec231de5bf05fbaa786bcb7870d3883b6d535c6004ad83", "8c86142f188ff781a0172060f969c98f0360bd0cbb4f074708c787554f76213f"},
		"optimized": {237, "824305a080eb5d4686b1f9c9d5c8d33732a09c4a7efec6ce4b9c1ed416d73bf1", "456a7da6167e69030b68cfbafb8d3b5547186e04e52569ad846bdad912a46d76"},
	},
}

func TestGoldenTableIITraces(t *testing.T) {
	compilers := map[string]func() *compiler.Compiler{
		"baseline":  func() *compiler.Compiler { return baseline.New() },
		"optimized": core.New,
	}
	cfg := machine.PaperL6()
	for _, spec := range bench.Catalog() {
		want, ok := tableIIGolden[spec.Name]
		if !ok {
			t.Fatalf("no golden entry for %s", spec.Name)
		}
		c := spec.Build()
		for name, build := range compilers {
			res, err := build().Compile(c, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, name, err)
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, res); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			h := sha256.New()
			for _, op := range res.Ops {
				fmt.Fprintln(h, op)
			}
			got := goldenTrace{res.Shuttles, hex.EncodeToString(sum[:]), hex.EncodeToString(h.Sum(nil))}
			if got != want[name] {
				t.Errorf("%s/%s: got %+v, want %+v", spec.Name, name, got, want[name])
			}
		}
	}
}
