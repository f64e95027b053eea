package core

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/interp"
)

// tamperApp forwards every frame from a net source to an fs sink. %s is a
// line added after out is defined, %s a line at the top of the handler.
const tamperApp = `
const net = require("net");
const fs = require("fs");
const sock = net.connect({ host: "sensor", port: 7 });
const out = fs.createWriteStream("/pub");
%s
sock.on("data", frame => { %s out.write(frame); });
`

const tamperPolicy = `{
  "labellers": { "Secret": "v => \"Secret\"", "Public": "v => \"Public\"" },
  "rules": [ "Public -> Secret" ],
  "injections": [
    { "object": "frame", "labeller": "Secret" },
    { "object": "out", "labeller": "Public" }
  ]
}`

// TestTrackerCannotBeReplaced: under the shipped configuration, on both
// engines, no program line can replace, alias or shadow the tracker to
// let a Secret frame reach a Public sink. Each case either records the
// violation and writes nothing, or fails to deploy before any sink write.
func TestTrackerCannotBeReplaced(t *testing.T) {
	const fake = `function (o, m, args) { return o.write(args[0]); }`
	const fakeObj = `{ invoke: ` + fake + `, label: function (v) { return v; } }`
	cases := []struct {
		name, top, handler string
	}{
		{"plain write", "", ""},
		{"overwrite a method", "__t.invoke = " + fake + ";", ""},
		{"alias then overwrite", "const t = __t; t.invoke = " + fake + ";", ""},
		{"global var __t", "var __t = " + fakeObj + ";", ""},
		{"handler var __t", "", "var __t = " + fakeObj + ";"},
		{"handler __t is the sink", "", "var __t = out; __t.write(frame); return;"},
	}
	for _, c := range cases {
		for _, engine := range interp.Engines {
			t.Run(fmt.Sprintf("%s/%v", c.name, engine), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Engine = engine
				src := fmt.Sprintf(tamperApp, c.top, c.handler)
				app, err := Manage(map[string]string{"app.js": src}, tamperPolicy, opts)
				if err != nil {
					if !strings.Contains(err.Error(), `"__t" is not defined`) {
						t.Fatalf("deploy failed with %v, want \"__t\" is not defined", err)
					}
					return
				}
				_ = app.Emit("net.socket:sensor:7", "data", "s1|s2")
				if n := len(app.Violations()); n != 1 {
					t.Errorf("violations = %d, want 1", n)
				}
				if w := app.Writes(); len(w) != 0 {
					t.Errorf("sink writes = %+v, want none", w)
				}
			})
		}
	}
}
