// Package testbed is the in-process substitute for the paper's
// USD-$4000 software-defined-radio testbed: real UE and MME
// implementations wired over an adversary-controllable channel, used to
// validate that counterexamples found by the verification loop actually
// drive the implementation into the bad state (Section VI, "Testbed").
//
// It offers two layers: canned end-to-end attack validations for the
// paper's headline findings (P1 service disruption, P3 selective denial),
// and a generic executor that maps a model-checking counterexample's
// adversary steps onto live channel actions.
package testbed

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/mc"
	"prochecker/internal/nas"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/spec"
	"prochecker/internal/ue"
)

// P1Result reports the end-to-end validation of the service-disruption
// attack (Figure 4).
type P1Result struct {
	// StaleChallengeAccepted: the victim accepted the days-old captured
	// authentication_request.
	StaleChallengeAccepted bool
	// KeysDesynchronised: after the stale acceptance, UE and network hold
	// different NAS keys.
	KeysDesynchronised bool
	// ServiceDisrupted: a genuine protected downlink message is now
	// discarded by the UE.
	ServiceDisrupted bool
}

// Succeeded reports whether the full attack chain worked.
func (r P1Result) Succeeded() bool {
	return r.StaleChallengeAccepted && r.KeysDesynchronised && r.ServiceDisrupted
}

// ValidateP1 runs the two-phase attack of Figure 4 against a live
// implementation: phase 1 captures an authentication_request (here: the
// first challenge, which the adversary drops so the network retries);
// phase 2 replays the stale challenge to the attached victim.
func ValidateP1(profile ue.Profile) (P1Result, error) {
	var out P1Result
	env, err := conformance.NewEnv(profile, nil)
	if err != nil {
		return out, fmt.Errorf("testbed: %w", err)
	}
	// Phase 1: capture-and-drop the first challenge.
	drop := &channel.DropFilter{
		Dir:   channel.Downlink,
		Match: func(p nas.Packet) bool { return p.Header == nas.HeaderPlain },
		Limit: 1,
	}
	env.Link.SetAdversary(drop)
	req, err := env.UE.StartAttach()
	if err != nil {
		return out, fmt.Errorf("testbed: starting attach: %w", err)
	}
	env.SendUplink(req)
	if drop.DroppedSoFar() != 1 {
		return out, fmt.Errorf("testbed: challenge was not captured")
	}
	stale := env.Link.Captured(channel.Downlink)[0]

	// The network retries; the attach completes with a fresh vector.
	env.Link.SetAdversary(nil)
	retry, err := env.MME.StartReauthentication()
	if err != nil {
		return out, fmt.Errorf("testbed: auth retry: %w", err)
	}
	env.SendDownlink(retry)
	if !env.UE.Registered() {
		return out, fmt.Errorf("testbed: victim did not register (state %s)", env.UE.State())
	}
	keysBefore := env.UE.Keys()

	// Phase 2: replay the stale challenge directly to the victim.
	replies := env.UE.HandleDownlink(stale)
	for _, r := range replies {
		if r.Header != nas.HeaderPlain {
			continue
		}
		if m, err := nas.Unmarshal(r.Payload); err == nil && m.Name() == spec.AuthResponse {
			out.StaleChallengeAccepted = true
		}
	}
	out.KeysDesynchronised = env.UE.Keys() != keysBefore && env.UE.Keys() != env.MME.Keys()

	// The legitimate network's next protected message is now discarded.
	info, err := env.MME.SendEMMInformation()
	if err != nil {
		return out, fmt.Errorf("testbed: sending emm_information: %w", err)
	}
	before := env.UE.Recorder().Len()
	env.UE.HandleDownlink(info)
	disrupted := true
	for _, rec := range env.UE.Recorder().Snapshot()[before:] {
		if rec.Name == "mac_valid" && rec.Value == "1" {
			disrupted = false
		}
	}
	out.ServiceDisrupted = disrupted
	return out, nil
}

// P3Result reports the selective-denial validation.
type P3Result struct {
	// CommandsDropped counts the suppressed transmissions (1 initial + 4
	// retransmissions).
	CommandsDropped int
	// ProcedureAborted: the MME abandoned the reallocation.
	ProcedureAborted bool
	// GUTIUnchangedAtUE: the victim still uses the old temporary
	// identity, enabling long-term tracking.
	GUTIUnchangedAtUE bool
}

// Succeeded reports whether the denial chain worked.
func (r P3Result) Succeeded() bool {
	return r.CommandsDropped == 5 && r.ProcedureAborted && r.GUTIUnchangedAtUE
}

// ValidateP3 runs the selective security-procedure denial: a MITM relay
// surreptitiously drops every guti_reallocation_command until the network
// aborts the procedure on the fifth T3450 expiry.
func ValidateP3(profile ue.Profile) (P3Result, error) {
	var out P3Result
	env, err := conformance.NewEnv(profile, nil)
	if err != nil {
		return out, fmt.Errorf("testbed: %w", err)
	}
	if err := env.Attach(); err != nil {
		return out, fmt.Errorf("testbed: attach: %w", err)
	}
	oldGUTI := env.UE.GUTI()
	drop := &channel.DropFilter{
		Dir: channel.Downlink,
		// The attacker infers the message type from metadata (length,
		// temporal order); here every ciphered downlink packet during the
		// window is the reallocation command.
		Match: func(p nas.Packet) bool { return p.Header == nas.HeaderIntegrityCiphered },
	}
	env.Link.SetAdversary(drop)
	cmd, err := env.MME.StartGUTIReallocation()
	if err != nil {
		return out, fmt.Errorf("testbed: starting reallocation: %w", err)
	}
	env.SendDownlink(cmd)
	for {
		retx, ok := env.MME.TickTimer()
		if !ok {
			break
		}
		env.SendDownlink(retx)
	}
	out.CommandsDropped = drop.DroppedSoFar()
	for _, p := range env.MME.AbortedProcedures() {
		if p == spec.GUTIRealloCommand {
			out.ProcedureAborted = true
		}
	}
	out.GUTIUnchangedAtUE = env.UE.GUTI() == oldGUTI
	return out, nil
}

// StepOutcome records how one counterexample step mapped onto the live
// system.
type StepOutcome struct {
	Rule    string
	Action  string
	Skipped bool
}

// ReplayResult is the outcome of replaying a counterexample trace.
type ReplayResult struct {
	Steps []StepOutcome
	// AdversaryActions counts the drop/replay/inject steps actually
	// performed.
	AdversaryActions int
	// FinalUEState / FinalMMEState snapshot the implementations after the
	// replay.
	FinalUEState  spec.EMMState
	FinalMMEState spec.MMEState
}

// ReplayTrace executes a model-checking counterexample against a live
// environment: internal events start procedures, adversary steps are
// mapped to channel actions, and protocol steps happen through normal
// delivery. Unmappable steps are recorded as skipped.
func ReplayTrace(profile ue.Profile, trace *mc.Trace) (ReplayResult, error) {
	return ReplayTraceContext(context.Background(), profile, trace, nil)
}

// ReplayTraceContext is ReplayTrace with cancellation and an optional
// background link adversary (e.g. a seeded channel.FaultConfig chain),
// replaying the counterexample over a faulty link. When ctx is
// cancelled mid-replay the steps executed so far are returned together
// with an error wrapping resilience.ErrCancelled.
func ReplayTraceContext(ctx context.Context, profile ue.Profile, trace *mc.Trace, adv channel.Adversary) (out ReplayResult, err error) {
	_, span := obs.Start(ctx, "testbed.replay", obs.A("profile", profile.String()))
	defer func() {
		span.SetAttr("steps", strconv.Itoa(len(out.Steps)))
		span.SetAttr("adversary_actions", strconv.Itoa(out.AdversaryActions))
		if reg := obs.FromContext(ctx).Metrics(); reg != nil {
			reg.Counter("testbed.replays").Inc()
			reg.Counter("testbed.replay_steps").Add(int64(len(out.Steps)))
		}
		span.EndErr(err)
	}()
	if trace == nil {
		return out, fmt.Errorf("testbed: nil trace")
	}
	env, err := conformance.NewEnv(profile, adv)
	if err != nil {
		return out, fmt.Errorf("testbed: %w", err)
	}

	// A lasso's loop is replayed once: one pass suffices on the testbed.
	limit := len(trace.Steps)
	for _, step := range trace.Steps[:limit] {
		if ctx.Err() != nil {
			out.FinalUEState = env.UE.State()
			out.FinalMMEState = env.MME.State()
			return out, fmt.Errorf("testbed: replay stopped after %d of %d steps: %w",
				len(out.Steps), limit, resilience.ErrCancelled)
		}
		oc := StepOutcome{Rule: step.Rule}
		switch {
		case strings.HasPrefix(step.Rule, "ue:internal:"):
			oc.Action = runUEInternal(env, step.Rule)
		case strings.HasPrefix(step.Rule, "mme:internal:"), strings.HasPrefix(step.Rule, "mme:guti_realloc:start"):
			oc.Action = runMMEInternal(env, step.Rule)
		case step.Tags["actor"] == "adv":
			oc.Action = runAdversary(env, step.Tags)
			if oc.Action != "" {
				out.AdversaryActions++
			}
		default:
			// Protocol recv steps happen through the pump.
			oc.Skipped = true
		}
		if oc.Action == "" && !oc.Skipped {
			oc.Skipped = true
		}
		out.Steps = append(out.Steps, oc)
		env.Pump()
	}
	out.FinalUEState = env.UE.State()
	out.FinalMMEState = env.MME.State()
	return out, nil
}

func runUEInternal(env *conformance.Env, rule string) string {
	switch {
	case strings.Contains(rule, "/attach_request"):
		if p, err := env.UE.StartAttach(); err == nil {
			env.SendUplink(p)
			return "attach started"
		}
	case strings.Contains(rule, "/detach_request_ue"):
		if p, err := env.UE.StartDetach(false); err == nil {
			env.SendUplink(p)
			return "detach started"
		}
	case strings.Contains(rule, "/tracking_area_update_request"):
		if p, err := env.UE.StartTAU(conformance.DefaultTAC + 1); err == nil {
			env.SendUplink(p)
			return "TAU started"
		}
	case strings.Contains(rule, "/service_request"):
		if p, err := env.UE.StartServiceRequest(); err == nil {
			env.SendUplink(p)
			return "service request started"
		}
	}
	return ""
}

func runMMEInternal(env *conformance.Env, rule string) string {
	switch {
	case strings.Contains(rule, "guti_realloc:start"), strings.Contains(rule, "/guti_reallocation_command"):
		if p, err := env.MME.StartGUTIReallocation(); err == nil {
			env.SendDownlink(p)
			return "GUTI reallocation started"
		}
	case strings.Contains(rule, "/paging_request"):
		if p, err := env.MME.Page(false); err == nil {
			env.SendDownlink(p)
			return "paging sent"
		}
	case strings.Contains(rule, "/identity_request"):
		if p, err := env.MME.SendIdentityRequest(nas.IDTypeIMSI); err == nil {
			env.SendDownlink(p)
			return "identity request sent"
		}
	case strings.Contains(rule, "/detach_request_nw"):
		if p, err := env.MME.StartDetach(nas.DetachEPS); err == nil {
			env.SendDownlink(p)
			return "network detach sent"
		}
	case strings.Contains(rule, "/authentication_request"):
		if p, err := env.MME.StartReauthentication(); err == nil {
			env.SendDownlink(p)
			return "re-authentication sent"
		}
	}
	return ""
}

func runAdversary(env *conformance.Env, tags map[string]string) string {
	msg := spec.MessageName(tags["msg"])
	dir := channel.Downlink
	if spec.IsUplink(msg) {
		dir = channel.Uplink
	}
	switch tags["kind"] {
	case "drop":
		// Drain the matching queued packet, if any.
		if p, ok := env.Link.Recv(dir); ok {
			_ = p
			return fmt.Sprintf("dropped in-flight %s packet", dir)
		}
		return "drop (channel empty)"
	case "replay":
		for _, p := range env.Link.Captured(dir) {
			if matchesMessage(env, p, msg, dir) {
				env.Link.Inject(dir, p)
				return fmt.Sprintf("replayed captured %s", msg)
			}
		}
		return ""
	case "inject":
		if p, ok := forge(msg); ok {
			env.Link.Inject(dir, p)
			return fmt.Sprintf("injected forged %s", msg)
		}
		return ""
	default:
		return ""
	}
}

// matchesMessage decides whether a captured packet carries the given
// message type; plain packets are decoded, protected ones matched by the
// flow position heuristic a real attacker would use (header type).
func matchesMessage(env *conformance.Env, p nas.Packet, msg spec.MessageName, dir channel.Direction) bool {
	if p.Header == nas.HeaderPlain {
		m, err := nas.Unmarshal(p.Payload)
		return err == nil && m.Name() == msg
	}
	switch msg {
	case spec.SecurityModeCommand:
		return p.Header == nas.HeaderIntegrity && dir == channel.Downlink
	case spec.AttachAccept, spec.GUTIRealloCommand, spec.TAUAccept, spec.EMMInformation:
		return p.Header == nas.HeaderIntegrityCiphered && dir == channel.Downlink
	default:
		return p.Header != nas.HeaderPlain
	}
}

// forge crafts an adversary-chosen plain message of the given type;
// protected messages cannot be forged (the CPV guarantees traces never
// require it).
func forge(msg spec.MessageName) (nas.Packet, bool) {
	var m nas.Message
	switch msg {
	case spec.AttachReject:
		m = &nas.AttachReject{Cause: nas.CauseIllegalUE}
	case spec.TAUReject:
		m = &nas.TAUReject{Cause: nas.CauseTANotAllowed}
	case spec.ServiceReject:
		m = &nas.ServiceReject{Cause: nas.CauseEPSNotAllowed}
	case spec.AuthReject:
		m = &nas.AuthReject{}
	case spec.DetachRequestNW:
		m = &nas.DetachRequestNW{Type: nas.DetachEPS}
	case spec.IdentityRequest:
		m = &nas.IdentityRequest{IDType: nas.IDTypeIMSI}
	case spec.Paging:
		m = &nas.PagingRequest{IDType: nas.IDTypeIMSI, IMSI: conformance.DefaultIMSI}
	case spec.AttachRequest:
		m = &nas.AttachRequest{IMSI: "999990000000666"}
	default:
		return nas.Packet{}, false
	}
	p, err := (&nas.Context{}).Seal(m, nas.HeaderPlain, nas.DirDownlink)
	if err != nil {
		return nas.Packet{}, false
	}
	return p, true
}
