//! `serve`: an open loop into one `smc serve --jobs 2` over stdin.
//!
//! Requests are sent on a fixed schedule whatever the server does, and
//! each is timed from when it was due, so a stall shows in every
//! request queued behind it. The base step (40 req/s) gives the
//! end-to-end latency; traced runs add a step test at 100 and 200 req/s
//! to find the highest rate the server sustains.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use smc_engine::json_escape;
use smc_obs::Json;

use crate::gen::{self, Job, Model};
use crate::metrics::Value;
use crate::output;
use crate::process::{reap, Usage};
use crate::replay::Interp;
use crate::runner::{time_setup, Ctx, Measured, Tally};
use crate::stats::{median, quantile};
use crate::traced::{self, Tracer};

const BASE_RATE: f64 = 40.0;
/// The step test of traced runs: (rate, seconds); smaller under `quick`.
const STEPS: [(f64, f64); 2] = [(100.0, 5.0), (200.0, 3.0)];
const QUICK_STEPS: [(f64, f64); 2] = [(20.0, 1.0), (40.0, 1.0)];
/// A step is sustained when its p90 latency stays under this...
const P90_LIMIT_S: f64 = 0.100;
/// ...and its last response arrives within this of its last due time.
const DRAIN_LIMIT_S: f64 = 1.0;
/// How long to wait for the responses of a step after its last send.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
struct Planned {
    job: Job,
    line: String,
}

/// What came back for one request.
struct Answer {
    /// Seconds from due time to response.
    latency: f64,
    /// Job wall time the server reports, seconds.
    service: f64,
    cache_hit: bool,
    rejected: bool,
}

/// One step's requests, sent at `rate`; request `k` has id `{tag}.{k}`.
struct Step {
    tag: String,
    rate: f64,
    planned: Vec<Planned>,
}

fn request_line(pool: &[Model], job: &Job, id: &str, variant_tag: &str) -> String {
    let source = job.source(pool, variant_tag);
    let mut line =
        format!("{{\"op\":\"check\",\"id\":\"{id}\",\"source\":\"{}\"", json_escape(&source));
    if job.trace {
        line.push_str(",\"trace\":true");
    }
    if let Some(s) = job.spec {
        line.push_str(&format!(",\"spec\":\"{}\"", json_escape(&pool[job.model].specs[s].text)));
    }
    line.push('}');
    line
}

fn plan(pool: &[Model], rate: f64, seconds: f64, seed: u64, step: usize) -> Step {
    let count = (rate * seconds).round() as usize;
    let planned = gen::serve_requests(pool, count, seed.wrapping_add(step as u64))
        .into_iter()
        .enumerate()
        .map(|(k, job)| {
            let line = request_line(pool, &job, &format!("{step}.{k}"), &format!("{seed}.{step}"));
            Planned { job, line }
        })
        .collect();
    Step { tag: step.to_string(), rate, planned }
}

/// A running server and the thread reading its responses.
struct Server {
    child: Child,
    stdin: ChildStdin,
    responses: Receiver<(Instant, String)>,
    reader: std::thread::JoinHandle<()>,
}

impl Server {
    /// Starts `smc serve` and waits until it answers `{"op":"status"}`.
    fn start(ctx: &Ctx) -> Result<Server, String> {
        let mut child = Command::new(&ctx.smc)
            .args(["serve", "--jobs", "2"])
            .current_dir(&ctx.work)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start smc serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, responses) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut server = Server { child, stdin, responses, reader };
        match server.status() {
            Ok(()) => Ok(server),
            Err(e) => {
                server.kill();
                Err(e)
            }
        }
    }

    fn status(&mut self) -> Result<(), String> {
        self.send("{\"op\":\"status\"}")?;
        let (_, line) = self
            .responses
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|_| "smc serve did not answer a status request".to_string())?;
        match Json::parse(&line).as_ref().and_then(|j| j.get("op")).and_then(Json::as_str) {
            Some("status") => Ok(()),
            _ => Err(format!("unexpected answer to status: {line}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to smc serve: {e}"))
    }

    /// Kills the server after a failure and reaps it.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.stop();
    }

    /// Closes stdin, lets the server drain and exit, and reaps it.
    fn stop(self) -> Result<Usage, String> {
        let Server { child, stdin, responses, reader } = self;
        drop(stdin);
        // Drain the channel so the reader never blocks on a full queue.
        while responses.recv().is_ok() {}
        reader.join().map_err(|_| "response reader panicked".to_string())?;
        let (status, usage) = reap(&child).map_err(|e| format!("reaping smc serve: {e}"))?;
        if !status.success() && status.code() != Some(1) {
            return Err(format!("smc serve exited with {status}"));
        }
        Ok(usage)
    }
}

/// Sends `step` on its schedule and collects an answer per request
/// (`None` when the response never came). Also returns the latest the
/// generator sent anything, seconds behind schedule, and when the last
/// response arrived, seconds after the last due time.
fn run_step(
    server: &mut Server,
    step: &Step,
    pool: &[Model],
    interps: &[Interp],
    tally: &mut Tally,
    rejections_fail: bool,
) -> Result<(Vec<Option<Answer>>, f64, f64), String> {
    let start = Instant::now() + Duration::from_millis(10);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / step.rate);
    let mut late: f64 = 0.0;
    for (k, p) in step.planned.iter().enumerate() {
        let at = due(k);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late = late.max(Instant::now().duration_since(at).as_secs_f64());
        server.send(&p.line)?;
    }
    let last_due = due(step.planned.len().saturating_sub(1));
    let mut answers: Vec<Option<Answer>> = step.planned.iter().map(|_| None).collect();
    let mut pending = step.planned.len();
    let mut last_arrival = last_due;
    let deadline = Instant::now() + RESPONSE_TIMEOUT;
    while pending > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok((at, line)) = server.responses.recv_timeout(wait) else { break };
        let json = Json::parse(&line).ok_or_else(|| format!("response is not JSON: {line}"))?;
        let Some(k) = json
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.split_once('.'))
            .filter(|(tag, _)| *tag == step.tag)
            .and_then(|(_, k)| k.parse::<usize>().ok())
            .filter(|&k| k < answers.len() && answers[k].is_none())
        else {
            return Err(format!("response to no pending request: {line}"));
        };
        pending -= 1;
        last_arrival = last_arrival.max(at);
        let job = &step.planned[k].job;
        let outcome = json.get("outcome").and_then(Json::as_str).unwrap_or("");
        let rejected = outcome == "rejected";
        let result = if rejected && !rejections_fail {
            Ok(())
        } else {
            output::verify_job(&job.expected(pool), &json, &interps[job.model], job.trace)
        };
        tally.record(&format!("request {}", pool[job.model].name), result);
        answers[k] = Some(Answer {
            latency: at.duration_since(due(k)).as_secs_f64(),
            service: json.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0) * 1e-6,
            cache_hit: json.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            rejected,
        });
    }
    for _ in 0..pending {
        tally.record("request", Err("no response".to_string()));
    }
    Ok((answers, late, last_arrival.duration_since(last_due).as_secs_f64()))
}

/// The warm-up and every step, in order: (rate, answers, generator
/// lateness, drain time) per step, and the number of requests sent.
type Driven = (Vec<(f64, Vec<Option<Answer>>, f64, f64)>, usize);

fn drive(
    server: &mut Server,
    pool: &[Model],
    steps: &[Step],
    tally: &mut Tally,
) -> Result<Driven, String> {
    let interps: Vec<Interp> =
        pool.iter().map(|m| Interp::new(&m.source)).collect::<Result<_, _>>()?;
    // Warm-up: every pool source once, so repeats hit the cache.
    let warm = Step {
        tag: "w".to_string(),
        rate: BASE_RATE,
        planned: (0..pool.len())
            .map(|m| {
                let job = Job { model: m, variant: None, spec: None, trace: false };
                let line = request_line(pool, &job, &format!("w.{m}"), "");
                Planned { job, line }
            })
            .collect(),
    };
    run_step(server, &warm, pool, &interps, tally, true)?;
    let mut requests = warm.planned.len();
    let mut results = Vec::new();
    for (n, step) in steps.iter().enumerate() {
        let (answers, late, drain) = run_step(server, step, pool, &interps, tally, n == 0)?;
        results.push((step.rate, answers, late, drain));
        requests += step.planned.len();
    }
    Ok((results, requests))
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Measured, String> {
    let (rate, seconds) = if ctx.quick { (10.0, 2.0) } else { (BASE_RATE, ctx.seconds) };
    let mut pool: Vec<Model> = Vec::new();
    let mut steps: Vec<Step> = Vec::new();
    // Each set-up starts a server; all but the last are stopped after
    // timing, so their drain is not set-up time.
    let mut servers: Vec<Server> = Vec::new();
    let mut timed = time_setup(|| {
        ctx.write_inputs([])?;
        pool = gen::pool(&ctx.key);
        steps = vec![plan(&pool, rate, seconds, ctx.seed, 0)];
        if ctx.traced {
            let rates = if ctx.quick { QUICK_STEPS } else { STEPS };
            for (n, &(r, s)) in rates.iter().enumerate() {
                steps.push(plan(&pool, r, s, ctx.seed, n + 1));
            }
        }
        servers.push(Server::start(ctx)?);
        Ok(())
    });
    let last = servers.pop();
    for extra in servers {
        if let Err(e) = extra.stop() {
            timed = Err(e);
        }
    }
    let (setup_s, mut server) = match (timed, last) {
        (Ok(setup_s), Some(server)) => (setup_s, server),
        (timed, last) => {
            if let Some(server) = last {
                server.kill();
            }
            return Err(timed.err().unwrap_or_else(|| "set-up started no server".to_string()));
        }
    };
    let (results, requests) = match drive(&mut server, &pool, &steps, tally) {
        Ok(driven) => driven,
        Err(e) => {
            server.kill();
            return Err(e);
        }
    };
    let usage = server.stop()?;
    tally.cross_check(&pool, &ctx.cross_checked);

    let (_, base, late, _) = &results[0];
    let answered: Vec<&Answer> = base.iter().flatten().filter(|a| !a.rejected).collect();
    let latencies: Vec<f64> = answered.iter().map(|a| a.latency).collect();
    let services: Vec<f64> = answered.iter().map(|a| a.service).collect();
    let waits: Vec<f64> = answered.iter().map(|a| a.latency - a.service).collect();
    let mut layers = BTreeMap::new();
    let mut unattributed_s = None;
    if ctx.traced {
        let mut tracer = Tracer::new();
        let l = traced::repeat(|l| {
            pool.iter().try_for_each(|m| traced::trace_model(m, true, &mut tracer, l))
        })?;
        ctx.write_trace(&tracer)?;
        layers = l.metrics();

        let latencies_of = |answers: &[Option<Answer>]| -> Vec<f64> {
            answers.iter().flatten().filter(|a| !a.rejected).map(|a| a.latency).collect()
        };
        // The highest rate whose p90 stays under the limit, with every
        // request answered and the backlog gone soon after the last send.
        let mut max_rate = 0.0;
        for (rate, answers, _, drain) in &results {
            let lat = latencies_of(answers);
            if lat.len() < answers.len()
                || quantile(&lat, 0.9) > P90_LIMIT_S
                || *drain > DRAIN_LIMIT_S
            {
                break;
            }
            max_rate = *rate;
        }
        let rejected: usize = results
            .iter()
            .map(|(_, a, _, _)| a.iter().flatten().filter(|x| x.rejected).count())
            .sum();
        let high = results.get(1).map(|(_, a, _, _)| latencies_of(a)).unwrap_or_default();
        let hits = answered.iter().filter(|a| a.cache_hit).count() as f64;
        for (name, value) in [
            ("serve.service_p50_ms", Value::quantile(&services, 0.5, 1e3)),
            ("serve.latency_p90_ms", Value::quantile(&latencies, 0.9, 1e3)),
            ("serve.queue_wait_p90_ms", Value::quantile(&waits, 0.9, 1e3)),
            ("serve.cache_hit_ratio", Value::exact(hits / answered.len().max(1) as f64)),
            ("serve.rejected", Value::exact(rejected as f64)),
            ("serve.generator_late_ms", Value::exact(late * 1e3)),
            ("serve.latency_p99_ms", Value::quantile(&latencies, 0.99, 1e3)),
            ("serve.high_p90_ms", Value::quantile(&high, 0.9, 1e3)),
            ("serve.max_rate_rps", Value::exact(max_rate)),
        ] {
            layers.insert(name.to_string(), value);
        }
        // The in-process part of a request is the job the server timed.
        unattributed_s = Some(median(&latencies) - median(&services));
    }
    Ok(Measured { setup_s, ops: requests, walls: latencies, usage, unattributed_s, layers })
}
