//! The server under test, as a child process: the shipped `sdp-serve`
//! binary started with nothing but its address set, so it runs
//! `Config::default()`.

use sdp_serve::Client;
use sdp_trace::json::Json;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained server may take to exit before it is killed.
const EXIT_WAIT: Duration = Duration::from_secs(10);

/// A running `sdp-serve` process; dropping it kills the process.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin` on an OS-chosen loopback port and waits for it to
    /// announce its address.
    pub fn spawn(bin: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on, an early return drops (and so kills) the child.
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut banner = String::new();
        server.stdout.read_line(&mut banner)?;
        server.addr = banner
            .trim()
            .strip_prefix("sdp-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                std::io::Error::other(format!(
                    "sdp-serve did not announce its address: {banner:?}"
                ))
            })?;
        Ok(server)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's own `metrics` snapshot.
    pub fn metrics(&self, control: &mut Client) -> std::io::Result<Json> {
        let reply = control.metrics()?;
        reply
            .result
            .ok_or_else(|| std::io::Error::other(format!("metrics failed: {}", reply.raw)))
    }

    /// Asks the server to drain, waits for it to exit, and kills it if
    /// it does not.  Every client connection must be closed first.
    pub fn stop(mut self, mut control: Client) -> std::io::Result<()> {
        control.shutdown()?;
        drop(control);
        let deadline = Instant::now() + EXIT_WAIT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!(
                        "sdp-serve exited with {status}"
                    )))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(std::io::Error::other(
            "sdp-serve did not exit after shutdown",
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
