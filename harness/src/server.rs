//! The program under test, from outside: spawning the real `certainty
//! serve`, talking its line protocol, reading its peak memory, and making
//! sure it never outlives the harness.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Environment variables the stack reads tuning from. The harness removes
/// them from its own environment at start-up — so neither the in-process
/// traced replay nor the child server (which inherits the environment) is
/// ever tuned by accident.
pub fn scrub_environment() {
    let tuned = |name: &str| {
        name.starts_with("CQA_")
            || name.ends_with("_VEC_CUTOFF")
            || name == "QUERY_VEC_MAX"
            || name == "TUPLE_BATCH_MIN"
    };
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| tuned(name))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Resident memory of the child server.
#[derive(Clone, Copy, Debug)]
pub struct Rss {
    pub now_mb: f64,
    pub peak_mb: f64,
}

/// A running `certainty serve --listen` child. Dropping it kills and reaps
/// the process, so a failed check or a panic never leaves a server behind.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns `certainty serve <schema> --db=<cqdb> --listen=127.0.0.1:0
    /// --threads=<threads>` and waits for its "serving on <addr>" line.
    pub fn spawn(
        certainty: &Path,
        schema: &Path,
        cqdb: &Path,
        threads: usize,
    ) -> Result<ServerProc, String> {
        let mut child = Command::new(certainty)
            .arg("serve")
            .arg(schema)
            .arg(format!("--db={}", cqdb.display()))
            .arg("--listen=127.0.0.1:0")
            .arg(format!("--threads={threads}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", certainty.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("the server exited before binding: {seen}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                match addr.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unreadable bind address {addr:?}: {e}"));
                    }
                }
            }
            seen.push_str(&line);
        };
        // Keep draining stderr so the child can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's resident set now (`VmRSS`) and at its peak (`VmHWM`) in
    /// MB, from `/proc/<pid>/status`.
    pub fn rss_mb(&self) -> Result<Rss, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let mb = |field: &str| {
            parse_status_kb(&status, field)
                .map(|kb| kb as f64 / 1024.0)
                .ok_or_else(|| format!("{path}: no {field} line"))
        };
        Ok(Rss {
            now_mb: mb("VmRSS:")?,
            peak_mb: mb("VmHWM:")?,
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // `certainty serve` has no shutdown request; killing is its clean
        // exit. Errors mean the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// One synchronous line-protocol connection: a caller that waits for each
/// reply before sending the next request (the closed-loop client).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and returns its one response line (without
    /// the terminator). The returned slice is valid until the next request.
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("send `{line}`: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(format!("the server closed the connection on `{line}`")),
            Ok(_) => Ok(self.line.trim_end_matches(['\r', '\n'])),
            Err(e) => Err(format!("receive for `{line}`: {e}")),
        }
    }
}

/// True iff a response line reports a failure: a refused (`overloaded`),
/// timed-out or otherwise errored request. Such a request counts as failed
/// and contributes no latency sample.
pub fn is_error_response(response: &str) -> bool {
    response.contains(": error:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_sizes_are_read_from_a_status_file() {
        let status =
            "Name:\tcertainty\nVmPeak:\t  209816 kB\nVmHWM:\t   65432 kB\nVmRSS:\t   60000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(65432));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(60000));
        assert_eq!(parse_status_kb("Name:\tx\n", "VmHWM:"), None);
    }

    #[test]
    fn error_responses_are_recognized() {
        assert!(is_error_response(
            "p: error: overloaded: 64 queries in flight (limit 64); retry later"
        ));
        assert!(is_error_response("q7: error: line 7: unknown relation `T`"));
        assert!(!is_error_response(
            "p: certain (possible: true, solver: rewriting)"
        ));
        assert!(!is_error_response("ok: inserted, epoch 4"));
    }
}
