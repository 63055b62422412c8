package main

import (
	"context"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// target is one slot's set-up fleets: runJoin executes one join for one
// client.
type target struct {
	runJoin func(ctx context.Context, c int, j job) (*core.Result, error)
	// prepare fetches every fleet's dataset metadata (the INFO round trips
	// a first run would make), so that no timed join pays for it.
	prepare func(ctx context.Context) error
	// tenantUsage reads a client's tenant meters over both relations
	// (repro.Server only).
	tenantUsage func(c int) netsim.Usage
	close       func()
}

// setUp builds one slot's fleets. Untraced (tr nil), it goes through the
// public facade: one repro.Session per fleet, or one repro.Server for a
// tenant workload. Traced, a repro.Server's tenants get a probe tracer
// through Server.Env, and session fleets are assembled with their leaf
// transports traced (tracedEnv).
func setUp(w *workload, fleets []repro.SessionConfig, tr *tracing) (*target, error) {
	if w.tenants != nil {
		return setUpServer(w, fleets[0], tr)
	}
	if tr != nil {
		return setUpTraced(fleets, tr)
	}
	var sessions []*repro.Session
	closeAll := func() {
		for _, s := range sessions {
			s.Close()
		}
	}
	for _, cfg := range fleets {
		s, err := repro.NewSession(cfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		sessions = append(sessions, s)
	}
	return &target{
		runJoin: func(ctx context.Context, _ int, j job) (*core.Result, error) {
			return sessions[j.fleet].RunContext(ctx, j.alg, j.spec)
		},
		prepare: func(ctx context.Context) error {
			for _, s := range sessions {
				if err := s.Env().Prepare(ctx); err != nil {
					return err
				}
			}
			return nil
		},
		close: closeAll,
	}, nil
}

// setUpServer builds one repro.Server over cfg.
func setUpServer(w *workload, cfg repro.SessionConfig, tr *tracing) (*target, error) {
	srv, err := repro.NewServer(repro.ServerConfig{Fleet: cfg, Tenants: w.tenants})
	if err != nil {
		return nil, err
	}
	envs := make([]*core.Env, len(w.clients))
	for c, cl := range w.clients {
		envs[c], err = srv.Env(cl.tenant)
		if err == nil && tr != nil {
			err = traceEnv(envs[c], tr.recorders[c])
		}
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return &target{
		runJoin: func(ctx context.Context, c int, j job) (*core.Result, error) {
			return srv.Run(ctx, w.clients[c].tenant, j.alg, j.spec)
		},
		prepare: func(ctx context.Context) error {
			for _, env := range envs {
				if err := env.Prepare(ctx); err != nil {
					return err
				}
			}
			return nil
		},
		tenantUsage: func(c int) netsim.Usage {
			r, s := srv.TenantUsage(w.clients[c].tenant)
			return r.Add(s)
		},
		close: func() { srv.Close() },
	}, nil
}

// setUpTraced assembles session fleets for the traced run.
func setUpTraced(fleets []repro.SessionConfig, tr *tracing) (*target, error) {
	var envs []*core.Env
	closeAll := func() {
		for _, e := range envs {
			e.R.Close()
			e.S.Close()
		}
	}
	for _, cfg := range fleets {
		env, err := tracedEnv(cfg, tr.leaves)
		if err != nil {
			closeAll()
			return nil, err
		}
		envs = append(envs, env)
		if err := traceEnv(env, tr.recorders[0]); err != nil {
			closeAll()
			return nil, err
		}
	}
	return &target{
		runJoin: func(ctx context.Context, _ int, j job) (*core.Result, error) {
			return j.alg.Run(ctx, envs[j.fleet], j.spec)
		},
		prepare: func(ctx context.Context) error {
			for _, e := range envs {
				if err := e.Prepare(ctx); err != nil {
					return err
				}
			}
			return nil
		},
		close: closeAll,
	}, nil
}

// traceEnv installs the probe tracer on both relations of env.
func traceEnv(env *core.Env, rec *recorder) error {
	r, err := traceProbe(env.R, rec)
	if err != nil {
		return err
	}
	s, err := traceProbe(env.S, rec)
	if err != nil {
		return err
	}
	env.R, env.S = r, s
	return nil
}

// tracedEnv assembles one session fleet with its leaf transports traced,
// the way repro.NewSession assembles it from the same SessionConfig: a
// sharded relation through shard.ServeLocal, an unsharded one as one
// server behind one remote. Only the SessionConfig fields the workloads
// set are mirrored; the traced run's byte and answer checks catch any
// drift from repro's own assembly.
func tracedEnv(cfg repro.SessionConfig, leaves *recorder) (*core.Env, error) {
	link := cfg.Link
	if link == (repro.LinkConfig{}) {
		link = netsim.DefaultLink()
	}
	var sopts []server.Option
	if cfg.PublishIndexes {
		sopts = append(sopts, server.PublishIndex())
	}
	copts := []client.Option{client.WithRetry(cfg.Retry)}
	if cfg.BatchSize > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: cfg.BatchSize}))
	}
	workers := max(cfg.Parallelism, 1)
	wrap := func(rt netsim.RoundTripper) netsim.RoundTripper { return &tracedTransport{rt: rt, rec: leaves} }
	serve := func(name string, objs []geom.Object) (core.Probe, error) {
		if cfg.Shards >= 1 {
			return shard.ServeLocal(name, objs, shard.LocalConfig{
				Shards: cfg.Shards, Workers: workers, TreeFanout: cfg.TreeFanout,
				Link: link, Price: 1, ServerOpts: sopts, ClientOpts: copts,
				WrapTransport: func(_ string, rt netsim.RoundTripper) netsim.RoundTripper { return wrap(rt) },
			})
		}
		rt := wrap(netsim.ServeParallel(server.New(name, objs, sopts...), workers))
		rem, err := client.NewRemote(name, rt, link, 1, copts...)
		if err != nil {
			rt.Close()
			return nil, err
		}
		return rem, nil
	}
	r, err := serve("R", cfg.R)
	if err != nil {
		return nil, err
	}
	s, err := serve("S", cfg.S)
	if err != nil {
		r.Close()
		return nil, err
	}
	model := costmodel.Default()
	model.Bucket = cfg.Bucket
	model.Link = link
	model.PriceR, model.PriceS = 1, 1
	env := core.NewEnv(r, s, client.Device{BufferObjects: cfg.Buffer}, model, cfg.Window)
	env.Seed = cfg.Seed
	env.Parallelism = cfg.Parallelism
	env.BatchSize = cfg.BatchSize
	return env, nil
}
